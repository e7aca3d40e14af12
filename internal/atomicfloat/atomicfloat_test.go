package atomicfloat

import (
	"sync"
	"testing"
)

func TestLoad(t *testing.T) {
	x := 3.25
	if got := Load(&x); got != 3.25 {
		t.Fatalf("Load = %v, want 3.25", got)
	}
}

func TestAddReturnsNewValue(t *testing.T) {
	x := 1.5
	if got := Add(&x, 2.0); got != 3.5 {
		t.Fatalf("Add returned %v, want 3.5", got)
	}
	if x != 3.5 {
		t.Fatalf("x = %v, want 3.5", x)
	}
}

func TestConcurrentAddExact(t *testing.T) {
	// Integer-valued increments are exact in float64 up to 2^53, so the
	// concurrent sum must match exactly — this is the property that makes
	// the AsyRGS atomic update well-defined.
	var x float64
	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Add(&x, 1)
			}
		}()
	}
	wg.Wait()
	if x != workers*perWorker {
		t.Fatalf("concurrent Add lost updates: got %v, want %d", x, workers*perWorker)
	}
}

func TestConcurrentAddMixedSigns(t *testing.T) {
	var x float64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		sign := float64(1)
		if w%2 == 1 {
			sign = -1
		}
		wg.Add(1)
		go func(s float64) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				Add(&x, s)
			}
		}(sign)
	}
	wg.Wait()
	if x != 0 {
		t.Fatalf("balanced adds should cancel exactly, got %v", x)
	}
}

func TestConcurrentSliceElements(t *testing.T) {
	// Distinct slice elements must be independently atomic.
	xs := make([]float64, 16)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				Add(&xs[i], 0.5)
			}
		}(w)
	}
	wg.Wait()
	for i, v := range xs {
		if v != 500 {
			t.Fatalf("xs[%d] = %v, want 500", i, v)
		}
	}
}

func BenchmarkAtomicAdd(b *testing.B) {
	var x float64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Add(&x, 1)
		}
	})
}

func BenchmarkPlainAdd(b *testing.B) {
	// The non-atomic baseline the paper's ablation compares against.
	var x float64
	for i := 0; i < b.N; i++ {
		x += 1
	}
	_ = x
}

package sparse

// Equivalence tests for the unrolled hot-loop kernels. Unrolling keeps 4
// (or 8 under GOAMD64=v3) independent accumulators, which reorders the
// summation: results match the scalar reference to a relative rounding
// bound, not bitwise. The bound used here is c·ε·Σ|v·x| with a generous
// constant — any indexing or dispatch bug exceeds it by many orders of
// magnitude. With SetScalarKernels(true) the dispatch must return the
// reference result bit-exactly. The float32 kernels are pinned against
// the float64 reference within the documented 2⁻²⁴ storage-rounding
// model.

import (
	"math"
	"math/rand"
	"testing"
)

// kernelCase builds a random gather-dot instance: n values, indices into
// an m-vector (with repeats, like a sparse row), and the dense vector.
func kernelCase(r *rand.Rand, n, m int) (vals []float64, idx []int, x []float64) {
	vals = make([]float64, n)
	idx = make([]int, n)
	x = make([]float64, m)
	for k := range vals {
		vals[k] = r.NormFloat64()
		idx[k] = r.Intn(m)
	}
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return
}

// absDot is Σ|v_k·x_k|, the scale of the rounding bound.
func absDot(vals []float64, idx []int, x []float64) float64 {
	var s float64
	for k, v := range vals {
		s += math.Abs(v * x[idx[k]])
	}
	return s
}

// dotBound is the acceptable |unrolled − scalar| gap: a few n·ε of the
// absolute-value sum, with an absolute floor for near-zero sums.
func dotBound(n int, scale float64) float64 {
	return 64 * float64(n+1) * 0x1p-52 * (scale + 1)
}

func TestDotKernelsMatchScalarReference(t *testing.T) {
	defer SetScalarKernels(false)
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257} {
		vals, idx, x := kernelCase(r, n, 4*n+8)
		want := dotRef64(vals, idx, x)
		scale := absDot(vals, idx, x)

		SetScalarKernels(false)
		if got := dot64(vals, idx, x); math.Abs(got-want) > dotBound(n, scale) {
			t.Fatalf("n=%d: dot64=%g ref=%g gap=%g", n, got, want, got-want)
		}
		if got := dot64Atomic(vals, idx, x); math.Abs(got-want) > dotBound(n, scale) {
			t.Fatalf("n=%d: dot64Atomic=%g ref=%g", n, got, want)
		}
		// The scalar toggle must reproduce the reference bit-exactly —
		// that is what makes it a valid ablation baseline.
		SetScalarKernels(true)
		if got := dot64(vals, idx, x); got != want {
			t.Fatalf("n=%d: scalar-dispatch dot64 %g != ref %g", n, got, want)
		}
		if got := dot64Atomic(vals, idx, x); got != dotRef64Atomic(vals, idx, x) {
			t.Fatalf("n=%d: scalar-dispatch dot64Atomic mismatch", n)
		}
	}
}

func TestFloat32DotWithinStorageRoundingModel(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 4, 9, 64, 257} {
		vals, idx, x := kernelCase(r, n, 4*n+8)
		vals32 := make([]float32, n)
		for k, v := range vals {
			vals32[k] = float32(v)
		}
		want := dotRef64(vals, idx, x)
		scale := absDot(vals, idx, x)
		// Each value is perturbed by ≤ 2⁻²⁴ relative; the dot moves by at
		// most Σ|v·x|·2⁻²⁴ plus accumulation noise.
		bound := scale*3*0x1p-24 + dotBound(n, scale)
		for _, scalar := range []bool{false, true} {
			SetScalarKernels(scalar)
			if got := dot32(vals32, idx, x); math.Abs(got-want) > bound {
				t.Fatalf("n=%d scalar=%v: dot32=%g ref64=%g gap=%g > %g", n, scalar, got, want, got-want, bound)
			}
			if got := dot32Atomic(vals32, idx, x); math.Abs(got-want) > bound {
				t.Fatalf("n=%d scalar=%v: dot32Atomic gap too large", n, scalar)
			}
		}
		SetScalarKernels(false)
		// f64 accumulation over exactly-representable f32 values: the
		// unrolled and scalar f32 kernels see identical summands, so they
		// agree to the reorder bound among themselves.
		a, b := dot32(vals32, idx, x), dotRef32(vals32, idx, x)
		if math.Abs(a-b) > dotBound(n, scale) {
			t.Fatalf("n=%d: dot32 %g vs its own ref %g", n, a, b)
		}
	}
	SetScalarKernels(false)
}

func TestScatterKernelsMatchScalarReference(t *testing.T) {
	defer SetScalarKernels(false)
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 5, 8, 17, 64, 129} {
		vals := make([]float64, n)
		// Scatter targets must be distinct (CSR rows are deduplicated);
		// use a permutation prefix.
		perm := r.Perm(2*n + 4)
		idx := perm[:n]
		for k := range vals {
			vals[k] = r.NormFloat64()
		}
		g := r.NormFloat64()
		want := make([]float64, 2*n+4)
		got := make([]float64, 2*n+4)
		for i := range want {
			v := r.NormFloat64()
			want[i], got[i] = v, v
		}
		scatterRef64(want, vals, idx, g)
		SetScalarKernels(false)
		scatter64(got, vals, idx, g)
		for i := range want {
			// Identical per-slot arithmetic, just issued out of order —
			// bit-exact.
			if got[i] != want[i] {
				t.Fatalf("n=%d: scatter64 slot %d %g != %g", n, i, got[i], want[i])
			}
		}
		// float32 scatter: same update order per slot, f32-rounded values.
		vals32 := make([]float32, n)
		for k, v := range vals {
			vals32[k] = float32(v)
		}
		got32 := make([]float64, len(want))
		ref32 := make([]float64, len(want))
		copy(got32, want)
		copy(ref32, want)
		scatter32(got32, vals32, idx, g)
		SetScalarKernels(true)
		scatter32(ref32, vals32, idx, g)
		for i := range got32 {
			if got32[i] != ref32[i] {
				t.Fatalf("n=%d: scatter32 slot %d mismatch", n, i)
			}
		}
	}
}

func TestAxpyMatchesReference(t *testing.T) {
	defer SetScalarKernels(false)
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 51, 128} {
		src := make([]float64, n)
		want := make([]float64, n)
		got := make([]float64, n)
		for i := range src {
			src[i] = r.NormFloat64()
			v := r.NormFloat64()
			want[i], got[i] = v, v
		}
		a := r.NormFloat64()
		axpyRef(want, src, a)
		SetScalarKernels(false)
		Axpy(got, src, a)
		for i := range want {
			if got[i] != want[i] { // per-slot arithmetic is identical
				t.Fatalf("n=%d: Axpy slot %d %g != %g", n, i, got[i], want[i])
			}
		}
		// AxpyAtomicRead on quiescent data equals the plain form.
		gotAt := make([]float64, n)
		wantAt := make([]float64, n)
		for i := range gotAt {
			v := r.NormFloat64()
			gotAt[i], wantAt[i] = v, v
		}
		axpyRef(wantAt, src, a)
		AxpyAtomicRead(gotAt, src, a)
		for i := range wantAt {
			if gotAt[i] != wantAt[i] {
				t.Fatalf("n=%d: AxpyAtomicRead slot %d mismatch", n, i)
			}
		}
	}
}

// TestCSR32SharesStructure pins the f32 view contract: index arrays are
// aliased (no copy), values are the rounded originals.
func TestCSR32SharesStructure(t *testing.T) {
	a := randomCSR(40, 40, 0.15, 77)
	a32 := NewCSR32(a)
	if &a32.RowPtr[0] != &a.RowPtr[0] || &a32.ColIdx[0] != &a.ColIdx[0] {
		t.Fatal("CSR32 must alias the parent's index arrays")
	}
	for k, v := range a.Vals {
		if a32.Vals[k] != float32(v) {
			t.Fatalf("value %d: %g not rounded to %g", k, a32.Vals[k], float32(v))
		}
	}
	if got, want := a32.ValueBytes(), 4*a.NNZ(); got != want {
		t.Fatalf("ValueBytes=%d want %d", got, want)
	}
	// RowDot through the view matches the f64 row dot within the storage
	// rounding model.
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		want := a.RowDot(i, x)
		scale := absDot(a.Vals[lo:hi], a.ColIdx[lo:hi], x)
		if got := a32.RowDot(i, x); math.Abs(got-want) > scale*3*0x1p-24+1e-12 {
			t.Fatalf("row %d: f32 dot %g vs f64 %g", i, got, want)
		}
	}
}

// FuzzDotKernels cross-checks the unrolled, atomic and f32 dot kernels
// against the scalar reference on fuzz-generated rows.
func FuzzDotKernels(f *testing.F) {
	f.Add(uint64(1), 8)
	f.Add(uint64(42), 65)
	f.Add(uint64(0), 0)
	f.Add(uint64(999), 1023)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(int64(seed)))
		vals, idx, x := kernelCase(r, n, n+8)
		want := dotRef64(vals, idx, x)
		scale := absDot(vals, idx, x)
		if got := dot64(vals, idx, x); math.Abs(got-want) > dotBound(n, scale) {
			t.Fatalf("dot64 diverged: %g vs %g (n=%d)", got, want, n)
		}
		if got := dot64Atomic(vals, idx, x); math.Abs(got-want) > dotBound(n, scale) {
			t.Fatalf("dot64Atomic diverged: %g vs %g (n=%d)", got, want, n)
		}
		vals32 := make([]float32, n)
		for k, v := range vals {
			vals32[k] = float32(v)
		}
		bound := scale*3*0x1p-24 + dotBound(n, scale)
		if got := dot32(vals32, idx, x); math.Abs(got-want) > bound {
			t.Fatalf("dot32 outside storage-rounding model: %g vs %g (n=%d)", got, want, n)
		}
	})
}

// FuzzScatterKernels cross-checks the unrolled scatter against the
// reference; targets are made distinct as CSR guarantees.
func FuzzScatterKernels(f *testing.F) {
	f.Add(uint64(7), 12)
	f.Add(uint64(3), 129)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(int64(seed)))
		vals := make([]float64, n)
		for k := range vals {
			vals[k] = r.NormFloat64()
		}
		idx := r.Perm(n + 4)[:n]
		g := r.NormFloat64()
		want := make([]float64, n+4)
		got := make([]float64, n+4)
		for i := range want {
			v := r.NormFloat64()
			want[i], got[i] = v, v
		}
		scatterRef64(want, vals, idx, g)
		scatter64(got, vals, idx, g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slot %d: %g != %g (n=%d)", i, got[i], want[i], n)
			}
		}
	})
}

// BenchmarkRowDot measures the gather-dot kernel across the dispatch
// grid: scalar baseline, unrolled, and the f32-storage variant. It
// gates nothing; asybench -exp hotpath times the same kernels inside
// full sweeps.
func BenchmarkRowDot(b *testing.B) {
	const n, m = 64, 1 << 16
	r := rand.New(rand.NewSource(5))
	vals, idx, x := kernelCase(r, n, m)
	vals32 := make([]float32, n)
	for k, v := range vals {
		vals32[k] = float32(v)
	}
	var sink float64
	b.Run("scalar", func(b *testing.B) {
		SetScalarKernels(true)
		defer SetScalarKernels(false)
		for i := 0; i < b.N; i++ {
			sink += dot64(vals, idx, x)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += dot64(vals, idx, x)
		}
	})
	b.Run("unrolled-atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += dot64Atomic(vals, idx, x)
		}
	})
	b.Run("f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += dot32(vals32, idx, x)
		}
	})
	if sink == math.Inf(1) {
		b.Fatal("sink overflow")
	}
}

// BenchmarkAxpy measures the contiguous multi-RHS row update.
func BenchmarkAxpy(b *testing.B) {
	const c = 51 // the paper's multi-RHS width
	src := make([]float64, c)
	dst := make([]float64, c)
	for i := range src {
		src[i] = float64(i)
	}
	b.Run("scalar", func(b *testing.B) {
		SetScalarKernels(true)
		defer SetScalarKernels(false)
		for i := 0; i < b.N; i++ {
			Axpy(dst, src, 1e-9)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Axpy(dst, src, 1e-9)
		}
	})
}

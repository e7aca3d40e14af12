package sparse

// Equivalence tests for the unrolled hot-loop kernels. Unrolling keeps 4
// independent accumulators, which reorders the summation: results match
// the scalar reference loops below to a relative rounding bound, not
// bitwise. The bound used here is c·ε·Σ|v·x| with a generous constant —
// any indexing bug exceeds it by many orders of magnitude.

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar reference loops: one accumulator, entries in order.

func dotRef64(vals []float64, idx []int, x []float64) float64 {
	var s float64
	for k, v := range vals {
		s += v * x[idx[k]]
	}
	return s
}

func scatterRef64(x []float64, vals []float64, idx []int, g float64) {
	for k, v := range vals {
		x[idx[k]] += g * v
	}
}

func axpyRef(dst, src []float64, a float64) {
	for i, v := range src {
		dst[i] += a * v
	}
}

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
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257} {
		vals, idx, x := kernelCase(r, n, 4*n+8)
		want := dotRef64(vals, idx, x)
		scale := absDot(vals, idx, x)
		if got := dot64(vals, idx, x); math.Abs(got-want) > dotBound(n, scale) {
			t.Fatalf("n=%d: dot64=%g ref=%g gap=%g", n, got, want, got-want)
		}
		if got := dot64Atomic(vals, idx, x); math.Abs(got-want) > dotBound(n, scale) {
			t.Fatalf("n=%d: dot64Atomic=%g ref=%g", n, got, want)
		}
	}
}

func TestScatterKernelsMatchScalarReference(t *testing.T) {
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
		scatter64(got, vals, idx, g)
		for i := range want {
			// Identical per-slot arithmetic, just issued out of order —
			// bit-exact.
			if got[i] != want[i] {
				t.Fatalf("n=%d: scatter64 slot %d %g != %g", n, i, got[i], want[i])
			}
		}
	}
}

func TestAxpyMatchesReference(t *testing.T) {
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

// FuzzDotKernels cross-checks the unrolled and atomic dot kernels
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

// BenchmarkRowDot measures the gather-dot kernel against the scalar
// reference loop, plain and with atomic loads. It gates nothing.
func BenchmarkRowDot(b *testing.B) {
	const n, m = 64, 1 << 16
	r := rand.New(rand.NewSource(5))
	vals, idx, x := kernelCase(r, n, m)
	var sink float64
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += dotRef64(vals, idx, x)
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
		for i := 0; i < b.N; i++ {
			axpyRef(dst, src, 1e-9)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Axpy(dst, src, 1e-9)
		}
	})
}

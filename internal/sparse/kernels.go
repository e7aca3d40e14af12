package sparse

import "github.com/asynclinalg/asyrgs/internal/atomicfloat"

// Inner kernels of the solver hot loop: gather-dot (row · x), scatter-axpy
// (x += g·row) and contiguous axpy (dense multi-RHS row updates). The
// unrolled bodies keep 4 independent accumulators so the multiply/load
// chains overlap instead of serializing on one register. Unrolling
// changes the summation order, so results agree with the scalar
// reference loops in kernels_test.go to relative rounding bounds, not
// bitwise — the tests there pin those bounds.
//
// Everything here is allocation-free: the warm-path zero-alloc regression
// tests run through these kernels.

// KernelName identifies the kernel implementation for benchmark labels:
// "unroll4" on every build.
func KernelName() string { return "unroll4" }

// --- gather dot: sum_k vals[k] * x[idx[k]] ---

func dot64(vals []float64, idx []int, x []float64) float64 {
	n := len(vals)
	idx = idx[:n] // bounds-check hint
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += vals[k] * x[idx[k]]
		s1 += vals[k+1] * x[idx[k+1]]
		s2 += vals[k+2] * x[idx[k+2]]
		s3 += vals[k+3] * x[idx[k+3]]
	}
	for ; k < n; k++ {
		s0 += vals[k] * x[idx[k]]
	}
	return (s0 + s1) + (s2 + s3)
}

func dot64Atomic(vals []float64, idx []int, x []float64) float64 {
	n := len(vals)
	idx = idx[:n]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += vals[k] * atomicfloat.Load(&x[idx[k]])
		s1 += vals[k+1] * atomicfloat.Load(&x[idx[k+1]])
		s2 += vals[k+2] * atomicfloat.Load(&x[idx[k+2]])
		s3 += vals[k+3] * atomicfloat.Load(&x[idx[k+3]])
	}
	for ; k < n; k++ {
		s0 += vals[k] * atomicfloat.Load(&x[idx[k]])
	}
	return (s0 + s1) + (s2 + s3)
}

// --- scatter axpy: x[idx[k]] += g * vals[k] (Kaczmarz row update) ---

func scatter64(x []float64, vals []float64, idx []int, g float64) {
	n := len(vals)
	idx = idx[:n]
	k := 0
	// Rows are deduplicated (FromRowBuckets), so the four writes per
	// step never alias each other and can issue independently.
	for ; k+4 <= n; k += 4 {
		x[idx[k]] += g * vals[k]
		x[idx[k+1]] += g * vals[k+1]
		x[idx[k+2]] += g * vals[k+2]
		x[idx[k+3]] += g * vals[k+3]
	}
	for ; k < n; k++ {
		x[idx[k]] += g * vals[k]
	}
}

// scatter64Atomic is the CAS-add variant for concurrent writers. The CAS
// loop serializes on memory anyway, so there is no unrolled form.
func scatter64Atomic(x []float64, vals []float64, idx []int, g float64) {
	for k, v := range vals {
		atomicfloat.Add(&x[idx[k]], g*v)
	}
}

// --- contiguous axpy: dst[i] += a * src[i] (dense multi-RHS row updates) ---

// Axpy adds a·src into dst elementwise over len(src) entries; dst must be
// at least that long. This is the streaming c-vector update at the heart
// of MulDense/MulDensePar and the batched dense sweeps.
func Axpy(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// AxpyAtomicRead adds a·src into dst with atomic (inconsistent-read)
// loads of src; the stores to dst stay plain. Used by the asynchronous
// dense sweeps where src is the shared iterate block.
func AxpyAtomicRead(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * atomicfloat.Load(&src[i])
		dst[i+1] += a * atomicfloat.Load(&src[i+1])
		dst[i+2] += a * atomicfloat.Load(&src[i+2])
		dst[i+3] += a * atomicfloat.Load(&src[i+3])
	}
	for ; i < n; i++ {
		dst[i] += a * atomicfloat.Load(&src[i])
	}
}

package sparse

import "github.com/asynclinalg/asyrgs/internal/atomicfloat"

// Inner kernels of the solver hot loop: gather-dot (row · x), scatter-axpy
// (x += g·row) and contiguous axpy (dense multi-RHS row updates). The
// unrolled bodies keep 4 independent accumulators (8 when built with
// GOAMD64=v3, see kernels_v3.go) so the FMA/load chains overlap instead of
// serializing on one register. Unrolling changes the summation order, so
// results agree with the scalar reference to relative rounding bounds, not
// bitwise — kernels_test.go pins those bounds.
//
// Everything here is allocation-free: the warm-path zero-alloc regression
// tests run through these kernels.

// scalarKernels routes the dispatch through the plain scalar loops — the
// ablation baseline of the hotpath benchmark grid. It is read without
// synchronization on every kernel call: toggle it only around benchmarks
// and tests, never while a concurrent solve is running.
var scalarKernels bool

// SetScalarKernels selects the scalar reference loops (true) or the
// unrolled kernels (false, the default). Not safe to flip concurrently
// with running solves; intended for benchmark ablations.
func SetScalarKernels(on bool) { scalarKernels = on }

// ScalarKernels reports whether the scalar ablation baseline is active.
func ScalarKernels() bool { return scalarKernels }

// KernelName identifies the active kernel implementation for benchmark
// labels: "scalar", "unroll4", or "unroll8-v3".
func KernelName() string {
	if scalarKernels {
		return "scalar"
	}
	return kernelName
}

// --- gather dot: sum_k vals[k] * x[idx[k]] ---

func dotRef64(vals []float64, idx []int, x []float64) float64 {
	var s float64
	for k, v := range vals {
		s += v * x[idx[k]]
	}
	return s
}

func dot64(vals []float64, idx []int, x []float64) float64 {
	if scalarKernels {
		return dotRef64(vals, idx, x)
	}
	n := len(vals)
	idx = idx[:n] // bounds-check hint
	var s0, s1, s2, s3 float64
	k := 0
	if kernelWide {
		var s4, s5, s6, s7 float64
		for ; k+8 <= n; k += 8 {
			s0 += vals[k] * x[idx[k]]
			s1 += vals[k+1] * x[idx[k+1]]
			s2 += vals[k+2] * x[idx[k+2]]
			s3 += vals[k+3] * x[idx[k+3]]
			s4 += vals[k+4] * x[idx[k+4]]
			s5 += vals[k+5] * x[idx[k+5]]
			s6 += vals[k+6] * x[idx[k+6]]
			s7 += vals[k+7] * x[idx[k+7]]
		}
		s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
	}
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

// dotRef64Atomic is dotRef64 with atomic (inconsistent-read) loads of x.
func dotRef64Atomic(vals []float64, idx []int, x []float64) float64 {
	var s float64
	for k, v := range vals {
		s += v * atomicfloat.Load(&x[idx[k]])
	}
	return s
}

func dot64Atomic(vals []float64, idx []int, x []float64) float64 {
	if scalarKernels {
		return dotRef64Atomic(vals, idx, x)
	}
	n := len(vals)
	idx = idx[:n]
	var s0, s1, s2, s3 float64
	k := 0
	if kernelWide {
		var s4, s5, s6, s7 float64
		for ; k+8 <= n; k += 8 {
			s0 += vals[k] * atomicfloat.Load(&x[idx[k]])
			s1 += vals[k+1] * atomicfloat.Load(&x[idx[k+1]])
			s2 += vals[k+2] * atomicfloat.Load(&x[idx[k+2]])
			s3 += vals[k+3] * atomicfloat.Load(&x[idx[k+3]])
			s4 += vals[k+4] * atomicfloat.Load(&x[idx[k+4]])
			s5 += vals[k+5] * atomicfloat.Load(&x[idx[k+5]])
			s6 += vals[k+6] * atomicfloat.Load(&x[idx[k+6]])
			s7 += vals[k+7] * atomicfloat.Load(&x[idx[k+7]])
		}
		s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
	}
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

// --- float32-storage gather dot: float64 accumulation over float32 values ---

func dotRef32(vals []float32, idx []int, x []float64) float64 {
	var s float64
	for k, v := range vals {
		s += float64(v) * x[idx[k]]
	}
	return s
}

func dot32(vals []float32, idx []int, x []float64) float64 {
	if scalarKernels {
		return dotRef32(vals, idx, x)
	}
	n := len(vals)
	idx = idx[:n]
	var s0, s1, s2, s3 float64
	k := 0
	if kernelWide {
		var s4, s5, s6, s7 float64
		for ; k+8 <= n; k += 8 {
			s0 += float64(vals[k]) * x[idx[k]]
			s1 += float64(vals[k+1]) * x[idx[k+1]]
			s2 += float64(vals[k+2]) * x[idx[k+2]]
			s3 += float64(vals[k+3]) * x[idx[k+3]]
			s4 += float64(vals[k+4]) * x[idx[k+4]]
			s5 += float64(vals[k+5]) * x[idx[k+5]]
			s6 += float64(vals[k+6]) * x[idx[k+6]]
			s7 += float64(vals[k+7]) * x[idx[k+7]]
		}
		s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
	}
	for ; k+4 <= n; k += 4 {
		s0 += float64(vals[k]) * x[idx[k]]
		s1 += float64(vals[k+1]) * x[idx[k+1]]
		s2 += float64(vals[k+2]) * x[idx[k+2]]
		s3 += float64(vals[k+3]) * x[idx[k+3]]
	}
	for ; k < n; k++ {
		s0 += float64(vals[k]) * x[idx[k]]
	}
	return (s0 + s1) + (s2 + s3)
}

func dotRef32Atomic(vals []float32, idx []int, x []float64) float64 {
	var s float64
	for k, v := range vals {
		s += float64(v) * atomicfloat.Load(&x[idx[k]])
	}
	return s
}

func dot32Atomic(vals []float32, idx []int, x []float64) float64 {
	if scalarKernels {
		return dotRef32Atomic(vals, idx, x)
	}
	n := len(vals)
	idx = idx[:n]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += float64(vals[k]) * atomicfloat.Load(&x[idx[k]])
		s1 += float64(vals[k+1]) * atomicfloat.Load(&x[idx[k+1]])
		s2 += float64(vals[k+2]) * atomicfloat.Load(&x[idx[k+2]])
		s3 += float64(vals[k+3]) * atomicfloat.Load(&x[idx[k+3]])
	}
	for ; k < n; k++ {
		s0 += float64(vals[k]) * atomicfloat.Load(&x[idx[k]])
	}
	return (s0 + s1) + (s2 + s3)
}

// --- scatter axpy: x[idx[k]] += g * vals[k] (Kaczmarz row update) ---

func scatterRef64(x []float64, vals []float64, idx []int, g float64) {
	for k, v := range vals {
		x[idx[k]] += g * v
	}
}

func scatter64(x []float64, vals []float64, idx []int, g float64) {
	if scalarKernels {
		scatterRef64(x, vals, idx, g)
		return
	}
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

func scatter32(x []float64, vals []float32, idx []int, g float64) {
	if scalarKernels {
		for k, v := range vals {
			x[idx[k]] += g * float64(v)
		}
		return
	}
	n := len(vals)
	idx = idx[:n]
	k := 0
	for ; k+4 <= n; k += 4 {
		x[idx[k]] += g * float64(vals[k])
		x[idx[k+1]] += g * float64(vals[k+1])
		x[idx[k+2]] += g * float64(vals[k+2])
		x[idx[k+3]] += g * float64(vals[k+3])
	}
	for ; k < n; k++ {
		x[idx[k]] += g * float64(vals[k])
	}
}

func scatter32Atomic(x []float64, vals []float32, idx []int, g float64) {
	for k, v := range vals {
		atomicfloat.Add(&x[idx[k]], g*float64(v))
	}
}

// --- contiguous axpy: dst[i] += a * src[i] (dense multi-RHS row updates) ---

func axpyRef(dst, src []float64, a float64) {
	for i, v := range src {
		dst[i] += a * v
	}
}

// Axpy adds a·src into dst elementwise over len(src) entries; dst must be
// at least that long. This is the streaming c-vector update at the heart
// of MulDense/MulDensePar and the batched dense sweeps.
func Axpy(dst, src []float64, a float64) {
	if scalarKernels {
		axpyRef(dst, src, a)
		return
	}
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
	if !scalarKernels {
		for ; i+4 <= n; i += 4 {
			dst[i] += a * atomicfloat.Load(&src[i])
			dst[i+1] += a * atomicfloat.Load(&src[i+1])
			dst[i+2] += a * atomicfloat.Load(&src[i+2])
			dst[i+3] += a * atomicfloat.Load(&src[i+3])
		}
	}
	for ; i < n; i++ {
		dst[i] += a * atomicfloat.Load(&src[i])
	}
}

// Package vec provides dense vector kernels (BLAS level-1 style) and a
// row-major dense block type used for multi-right-hand-side solves.
//
// All operations are written against plain []float64 slices so that they
// compose with the sparse kernels and the atomic shared-state solvers
// without copies.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the Euclidean inner product x·y. It panics if the lengths
// differ, because a silent truncation would corrupt a solver invisibly.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm ‖x‖₂ using scaled accumulation to avoid
// overflow/underflow for extreme magnitudes. A NaN entry gives NaN, so a
// NaN iterate never measures as a zero residual; otherwise an infinite
// entry gives +Inf.
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		switch {
		case scale < a:
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		case a == scale:
			// a/scale is 1 for finite entries; ∞/∞ would be NaN.
			ssq++
		default:
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		// No entry raised scale: ssq is still 1 unless a NaN entry (which
		// fails every comparison) reached the else branch and made it NaN.
		return ssq - 1
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y ← y + alpha·x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x ← alpha·x.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sub computes dst ← x − y.
func Sub(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("vec: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Equal reports whether x and y agree entrywise to within tol (absolute).
func Equal(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i, v := range x {
		if math.Abs(v-y[i]) > tol {
			return false
		}
	}
	return true
}

// RelErr returns ‖x−y‖₂ / ‖y‖₂, or ‖x‖₂ when y is zero. It is the
// convergence metric used throughout the experiment harness.
func RelErr(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: RelErr length mismatch")
	}
	d := make([]float64, len(x))
	Sub(d, x, y)
	ny := Nrm2(y)
	if ny == 0 {
		return Nrm2(d)
	}
	return Nrm2(d) / ny
}

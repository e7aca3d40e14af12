// Package spectral estimates the extreme eigenvalues and condition number
// of large sparse symmetric matrices. The paper's convergence bounds are
// expressed in λmax, λmin and κ = λmax/λmin; its experiments used an
// iterative condition-number estimator (Avron, Druinsky & Toledo).
// This package provides a Lanczos process whose tridiagonal Ritz values
// bracket the spectrum (extracted by bisection on Sturm sequences), with
// Gershgorin interval bounds as the fallback when Lanczos breaks down.
package spectral

import (
	"math"

	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// Gershgorin returns an interval [lo,hi] containing every eigenvalue of
// the symmetric matrix A, from the union of Gershgorin discs.
func Gershgorin(a *sparse.CSR) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var center, radius float64
		for k, j := range cols {
			if j == i {
				center = vals[k]
			} else {
				radius += math.Abs(vals[k])
			}
		}
		if center-radius < lo {
			lo = center - radius
		}
		if center+radius > hi {
			hi = center + radius
		}
	}
	if a.Rows == 0 {
		return 0, 0
	}
	return lo, hi
}

// Estimate bundles spectral estimates for an SPD matrix.
type Estimate struct {
	LambdaMax float64
	LambdaMin float64
	Cond      float64 // κ = LambdaMax / LambdaMin
	Steps     int     // Lanczos steps performed
}

// Lanczos runs steps iterations of the Lanczos process on the symmetric
// matrix A with full reorthogonalization (the matrices of interest are
// moderate-sized, so the O(n·steps²) cost is acceptable and the Ritz values
// are trustworthy) and returns estimates of the extreme eigenvalues.
//
// The smallest Ritz value overestimates λmin and the largest underestimates
// λmax; for the bound-validation experiments this is the right direction to
// make measured-versus-bound comparisons conservative is handled by the
// caller inflating κ slightly.
func Lanczos(a *sparse.CSR, steps int, seed uint64) Estimate {
	n := a.Rows
	if steps > n {
		steps = n
	}
	if steps < 1 {
		steps = 1
	}
	g := rng.NewSequential(seed)
	// Basis vectors kept for reorthogonalization.
	basis := make([][]float64, 0, steps)
	v := make([]float64, n)
	for i := range v {
		v[i] = g.NormFloat64()
	}
	vec.Scal(1/vec.Nrm2(v), v)

	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps) // beta[k] links step k and k+1
	w := make([]float64, n)

	for k := 0; k < steps; k++ {
		cur := append([]float64(nil), v...)
		basis = append(basis, cur)
		a.MulVec(w, cur)
		if k > 0 {
			vec.Axpy(-beta[k-1], basis[k-1], w)
		}
		ak := vec.Dot(cur, w)
		alpha = append(alpha, ak)
		vec.Axpy(-ak, cur, w)
		// Full reorthogonalization (twice is enough).
		for pass := 0; pass < 2; pass++ {
			for _, q := range basis {
				vec.Axpy(-vec.Dot(q, w), q, w)
			}
		}
		bk := vec.Nrm2(w)
		if bk <= 1e-14 || k == steps-1 {
			break
		}
		beta = append(beta, bk)
		for i := range v {
			v[i] = w[i] / bk
		}
	}

	m := len(alpha)
	lo, hi := tridiagExtremes(alpha[:m], beta[:min(len(beta), m-1)])
	est := Estimate{LambdaMax: hi, LambdaMin: lo, Steps: m}
	if lo > 0 {
		est.Cond = hi / lo
	} else {
		est.Cond = math.Inf(1)
	}
	return est
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// EstimateSPD estimates λmax, λmin and κ of an SPD matrix with a Lanczos
// sweep sized to the matrix (min(n, 2·stepsHint)), falling back to
// Gershgorin when Lanczos breaks down.
func EstimateSPD(a *sparse.CSR, stepsHint int, seed uint64) Estimate {
	if stepsHint < 20 {
		stepsHint = 20
	}
	est := Lanczos(a, stepsHint, seed)
	if est.LambdaMin <= 0 || math.IsNaN(est.LambdaMin) {
		lo, hi := Gershgorin(a)
		if lo <= 0 {
			lo = 1e-12
		}
		est = Estimate{LambdaMax: hi, LambdaMin: lo, Cond: hi / lo, Steps: est.Steps}
	}
	return est
}

package krylov

import (
	"context"
	"errors"
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// ErrNotConverged is returned when an iteration budget is exhausted before
// the requested tolerance is met. The iterate still holds the best
// approximation computed.
var ErrNotConverged = errors.New("krylov: did not reach the requested tolerance")

// CGOptions configure a conjugate-gradient run.
type CGOptions struct {
	// Tol is the relative-residual convergence threshold ‖b−Ax‖/‖b‖.
	Tol float64
	// MaxIter caps the number of iterations; 0 means 10·n.
	MaxIter int
	// Workers parallelizes the SpMV; 0 or 1 is serial.
	Workers int
	// Ctx, when non-nil, is checked before every iteration; a cancelled
	// context stops the solve and returns the context's error with the
	// best iterate so far left in x.
	Ctx context.Context
}

// CGResult reports a conjugate-gradient run.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
	MatVecs    int
}

// CG solves the SPD system A·x = b by conjugate gradients, starting from
// the initial guess in x. Its products are MulVecPar's round-robin ones.
func CG(a *sparse.CSR, x, b []float64, opts CGOptions) (CGResult, error) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		panic("krylov: CG shape mismatch")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	normB := vec.Nrm2(b)
	if normB == 0 {
		normB = 1
	}

	r := make([]float64, n)
	ap := make([]float64, n)
	a.MulVecPar(ap, x, opts.Workers)
	matvecs := 1
	vec.Sub(r, b, ap)

	p := append([]float64(nil), r...)
	rr := vec.Dot(r, r)

	res := vec.Nrm2(r) / normB
	if res <= tol {
		return CGResult{Iterations: 0, Residual: res, Converged: true, MatVecs: matvecs}, nil
	}

	for it := 1; it <= maxIter; it++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return CGResult{Iterations: it - 1, Residual: res, MatVecs: matvecs}, err
			}
		}
		a.MulVecPar(ap, p, opts.Workers)
		matvecs++
		pap := vec.Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			// Loss of positive definiteness (numerically); stop with the
			// current iterate rather than diverging.
			return CGResult{Iterations: it - 1, Residual: vec.Nrm2(r) / normB, MatVecs: matvecs}, ErrNotConverged
		}
		alpha := rr / pap
		vec.Axpy(alpha, p, x)
		vec.Axpy(-alpha, ap, r)
		res = vec.Nrm2(r) / normB
		if res <= tol {
			return CGResult{Iterations: it, Residual: res, Converged: true, MatVecs: matvecs}, nil
		}
		rrNew := vec.Dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: maxIter, Residual: res, MatVecs: matvecs}, ErrNotConverged
}

// CGDense runs independent conjugate-gradient recurrences on every column
// of the row-major block X for A·X = B, sharing the (parallel) sparse
// matrix product across columns — the "SIMD variant of CG" of the paper's
// §9 where the 51 systems are solved together and the blocks are stored
// row-major for locality. Columns that converge early are frozen. Its
// products are MulDensePar's contiguous row blocks.
//
// history, when non-nil, receives ‖B−AX‖_F/‖B‖_F after every iteration.
func CGDense(a *sparse.CSR, x, b *vec.Dense, opts CGOptions, history *[]float64) (CGResult, error) {
	n := a.Rows
	c := x.Cols
	if a.Cols != n || x.Rows != n || b.Rows != n || b.Cols != c {
		panic("krylov: CGDense shape mismatch")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	normB := vec.Nrm2(b.Data)
	if normB == 0 {
		normB = 1
	}

	r := vec.NewDense(n, c)
	p := vec.NewDense(n, c)
	ap := vec.NewDense(n, c)
	a.MulDensePar(ap.Data, x.Data, c, opts.Workers)
	matvecs := 1
	vec.Sub(r.Data, b.Data, ap.Data)
	copy(p.Data, r.Data)

	rz := make([]float64, c)    // per-column (r,r)
	active := make([]bool, c)   // per-column convergence state
	alpha := make([]float64, c) // per-column step
	pap := make([]float64, c)   // per-column (p,Ap)
	betas := make([]float64, c) // per-column direction update
	colDot := func(u, v *vec.Dense, out []float64) {
		for j := range out {
			out[j] = 0
		}
		for i := 0; i < n; i++ {
			ur, vr := u.Row(i), v.Row(i)
			for j := 0; j < c; j++ {
				out[j] += ur[j] * vr[j]
			}
		}
	}
	colDot(r, r, rz)
	for j := range active {
		active[j] = true
	}

	res := vec.Nrm2(r.Data) / normB
	if history != nil {
		*history = append(*history, res)
	}
	if res <= tol {
		return CGResult{Iterations: 0, Residual: res, Converged: true, MatVecs: matvecs}, nil
	}

	for it := 1; it <= maxIter; it++ {
		a.MulDensePar(ap.Data, p.Data, c, opts.Workers)
		matvecs++
		colDot(p, ap, pap)
		for j := 0; j < c; j++ {
			if active[j] && pap[j] > 0 {
				alpha[j] = rz[j] / pap[j]
			} else {
				alpha[j] = 0
			}
		}
		for i := 0; i < n; i++ {
			xr, pr, rr, apr := x.Row(i), p.Row(i), r.Row(i), ap.Row(i)
			for j := 0; j < c; j++ {
				xr[j] += alpha[j] * pr[j]
				rr[j] -= alpha[j] * apr[j]
			}
		}
		res = vec.Nrm2(r.Data) / normB
		if history != nil {
			*history = append(*history, res)
		}
		if res <= tol {
			return CGResult{Iterations: it, Residual: res, Converged: true, MatVecs: matvecs}, nil
		}
		rzOld := append([]float64(nil), rz...)
		colDot(r, r, rz)
		for j := 0; j < c; j++ {
			if active[j] && rzOld[j] > 0 {
				betas[j] = rz[j] / rzOld[j]
			} else {
				betas[j] = 0
				active[j] = false
			}
		}
		for i := 0; i < n; i++ {
			pr, rr := p.Row(i), r.Row(i)
			for j := 0; j < c; j++ {
				pr[j] = rr[j] + betas[j]*pr[j]
			}
		}
	}
	return CGResult{Iterations: maxIter, Residual: res, MatVecs: matvecs}, ErrNotConverged
}

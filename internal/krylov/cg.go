package krylov

import (
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// CG is a conjugate-gradient solve of the SPD system A·x = b, one
// iteration per Step. Its products are MulVecPar's round-robin ones.
type CG struct {
	a              *sparse.CSR
	x, r, p, ap    []float64
	rr, normB, res float64
	workers        int
}

// NewCG starts conjugate gradients from the initial guess in x, which
// every Step updates in place: it forms r = b − A·x with one product.
// workers parallelizes the SpMV; 0 or 1 is serial.
func NewCG(a *sparse.CSR, x, b []float64, workers int) *CG {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		panic("krylov: CG shape mismatch")
	}
	c := &CG{a: a, x: x, r: make([]float64, n), ap: make([]float64, n), normB: normOrOne(b), workers: workers}
	a.MulVecPar(c.ap, x, workers)
	vec.Sub(c.r, b, c.ap)
	c.p = append([]float64(nil), c.r...)
	c.rr = vec.Dot(c.r, c.r)
	c.res = vec.Nrm2(c.r) / c.normB
	return c
}

// Step runs one iteration and returns 1. When pᵀAp is not positive (the
// matrix is not numerically positive definite, or the residual is already
// exactly zero) the recurrence has broken down: Step returns 0 and leaves
// x as it was, and no later Step can advance.
func (c *CG) Step(int) int {
	c.a.MulVecPar(c.ap, c.p, c.workers)
	pap := vec.Dot(c.p, c.ap)
	if pap <= 0 || math.IsNaN(pap) {
		return 0
	}
	alpha := c.rr / pap
	vec.Axpy(alpha, c.p, c.x)
	vec.Axpy(-alpha, c.ap, c.r)
	c.res = vec.Nrm2(c.r) / c.normB
	rrNew := vec.Dot(c.r, c.r)
	beta := rrNew / c.rr
	c.rr = rrNew
	for i := range c.p {
		c.p[i] = c.r[i] + beta*c.p[i]
	}
	return 1
}

// Residual returns ‖r‖₂/‖b‖₂ for the recurrence residual r of the current
// x (the absolute norm when b = 0).
func (c *CG) Residual() float64 { return c.res }

// CGDense runs iters conjugate-gradient iterations on every column of the
// row-major block X for A·X = B, sharing the (parallel) sparse matrix
// product across columns — the "SIMD variant of CG" of the paper's §9
// where the 51 systems are solved together and the blocks are stored
// row-major for locality. A column whose recurrence breaks down is
// frozen. Its products are MulDensePar's contiguous row blocks.
//
// history, when non-nil, receives ‖B−AX‖_F/‖B‖_F before the first
// iteration and after every iteration.
func CGDense(a *sparse.CSR, x, b *vec.Dense, iters, workers int, history *[]float64) {
	n := a.Rows
	c := x.Cols
	if a.Cols != n || x.Rows != n || b.Rows != n || b.Cols != c {
		panic("krylov: CGDense shape mismatch")
	}
	normB := normOrOne(b.Data)

	r := vec.NewDense(n, c)
	p := vec.NewDense(n, c)
	ap := vec.NewDense(n, c)
	a.MulDensePar(ap.Data, x.Data, c, workers)
	vec.Sub(r.Data, b.Data, ap.Data)
	copy(p.Data, r.Data)

	rz := make([]float64, c)    // per-column (r,r)
	rzOld := make([]float64, c) // the previous iteration's (r,r)
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
	if history != nil {
		*history = append(*history, vec.Nrm2(r.Data)/normB)
	}

	for it := 1; it <= iters; it++ {
		a.MulDensePar(ap.Data, p.Data, c, workers)
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
		if history != nil {
			*history = append(*history, vec.Nrm2(r.Data)/normB)
		}
		copy(rzOld, rz)
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
}

// normOrOne returns ‖v‖₂, or 1 when v = 0, so a relative residual against
// a zero right-hand side is the absolute one.
func normOrOne(v []float64) float64 {
	if nv := vec.Nrm2(v); nv != 0 {
		return nv
	}
	return 1
}

package krylov

import (
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// FCG is Notay's flexible conjugate gradient method for the SPD system
// A·x = b, one iteration per Step: the preconditioner may change
// arbitrarily between iterations (AsyRGS does — it is randomized and
// asynchronous), and robustness is restored by explicitly
// A-orthogonalizing each new search direction against every previous
// direction, the paper's configuration ("we do not use truncation or
// restarts"). Its products are MulVecPar's round-robin ones.
type FCG struct {
	a          *sparse.CSR
	x, r, z    []float64
	precond    Preconditioner
	normB, res float64
	workers    int
	// Retained directions p_j, their images q_j = A·p_j, and (p_j, q_j).
	ps, qs [][]float64
	pq     []float64
}

// NewFCG starts Flexible-CG from the initial guess in x, which every Step
// updates in place: it forms r = b − A·x with one product. A nil precond
// is the identity; workers parallelizes the SpMV.
func NewFCG(a *sparse.CSR, x, b []float64, precond Preconditioner, workers int) *FCG {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		panic("krylov: FCG shape mismatch")
	}
	if precond == nil {
		precond = Identity{}
	}
	f := &FCG{a: a, x: x, r: make([]float64, n), z: make([]float64, n), precond: precond, normB: normOrOne(b), workers: workers}
	tmp := make([]float64, n)
	a.MulVecPar(tmp, x, workers)
	vec.Sub(f.r, b, tmp)
	f.res = vec.Nrm2(f.r) / f.normB
	return f
}

// Step runs one iteration, a preconditioner application and one product,
// and returns 1. When the new direction has pᵀAp not positive the
// recurrence has broken down: Step returns 0 and leaves x as it was.
func (f *FCG) Step(int) int {
	f.precond.Apply(f.z, f.r)

	// New direction: A-orthogonalize z against retained directions.
	p := append([]float64(nil), f.z...)
	for j := range f.ps {
		coef := vec.Dot(f.z, f.qs[j]) / f.pq[j]
		vec.Axpy(-coef, f.ps[j], p)
	}
	q := make([]float64, len(p))
	f.a.MulVecPar(q, p, f.workers)
	den := vec.Dot(p, q)
	if den <= 0 || math.IsNaN(den) {
		return 0
	}
	alpha := vec.Dot(p, f.r) / den
	vec.Axpy(alpha, p, f.x)
	vec.Axpy(-alpha, q, f.r)
	f.res = vec.Nrm2(f.r) / f.normB

	f.ps = append(f.ps, p)
	f.qs = append(f.qs, q)
	f.pq = append(f.pq, den)
	return 1
}

// Residual returns ‖r‖₂/‖b‖₂ for the recurrence residual r of the current
// x (the absolute norm when b = 0).
func (f *FCG) Residual() float64 { return f.res }

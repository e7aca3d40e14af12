package krylov

import (
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// The stationary steps take the reciprocal diagonal inv of A, prepared
// once per matrix by the caller; every entry must be finite (the registry
// rejects a zero diagonal at Prepare).

// Jacobi is the Jacobi iteration x ← x + D⁻¹(b − A·x), one sweep per
// Step: the classical synchronization-heavy baseline that asynchronous
// methods historically relaxed. A sweep forms b − A·x anyway, so the
// residual comes free with it.
type Jacobi struct {
	a            *sparse.CSR
	inv, x, b, r []float64
	normB, res   float64
	workers      int
}

// NewJacobi starts the iteration from the initial guess in x, which every
// Step updates in place, forming the residual of x with one product.
// workers parallelizes the SpMV.
func NewJacobi(a *sparse.CSR, inv, x, b []float64, workers int) *Jacobi {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(inv) != n {
		panic("krylov: Jacobi shape mismatch")
	}
	j := &Jacobi{a: a, inv: inv, x: x, b: b, r: make([]float64, n), normB: normOrOne(b), workers: workers}
	j.formResidual()
	return j
}

// Step updates x with the residual of the current x, then forms the
// residual of the new x, and returns 1.
func (j *Jacobi) Step(int) int {
	for i := range j.x {
		j.x[i] += j.inv[i] * j.r[i]
	}
	j.formResidual()
	return 1
}

// Residual returns ‖b−Ax‖₂/‖b‖₂ for the current x (the absolute norm when
// b = 0).
func (j *Jacobi) Residual() float64 { return j.res }

// formResidual sets r = b − A·x and res = ‖r‖₂/normB.
func (j *Jacobi) formResidual() {
	j.a.MulVecPar(j.r, j.x, j.workers)
	var rn float64
	for i := range j.r {
		j.r[i] = j.b[i] - j.r[i]
		rn += j.r[i] * j.r[i]
	}
	j.res = math.Sqrt(rn) / j.normB
}

// GaussSeidel is deterministic forward Gauss–Seidel,
// x_i ← (b_i − Σ_{j≠i} A_ij x_j)/A_ii in row order, one sweep per Step. It
// is inherently sequential — the baseline whose randomized counterpart the
// paper builds on. Its residual costs a product of its own.
type GaussSeidel struct {
	scratchResidual
	inv []float64
}

// NewGaussSeidel starts the iteration from the initial guess in x, which
// every Step updates in place.
func NewGaussSeidel(a *sparse.CSR, inv, x, b []float64) *GaussSeidel {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(inv) != n {
		panic("krylov: GaussSeidel shape mismatch")
	}
	return &GaussSeidel{scratchResidual: newScratchResidual(a, x, b), inv: inv}
}

// Step runs one sweep and returns 1.
func (g *GaussSeidel) Step(int) int {
	a, x, b := g.a, g.x, g.b
	for i := 0; i < a.Rows; i++ {
		var dot float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			dot += a.Vals[k] * x[a.ColIdx[k]]
		}
		// dot includes A_ii·x_i; solve for the updated x_i directly.
		x[i] += (b[i] - dot) * g.inv[i]
	}
	return 1
}

// scratchResidual measures ‖b−Ax‖₂/‖b‖₂ for the steps that do not form
// b − A·x themselves: one serial product into scratch allocated once.
type scratchResidual struct {
	a       *sparse.CSR
	x, b, r []float64
	normB   float64
}

func newScratchResidual(a *sparse.CSR, x, b []float64) scratchResidual {
	return scratchResidual{a: a, x: x, b: b, r: make([]float64, len(b)), normB: normOrOne(b)}
}

// Residual returns ‖b−Ax‖₂/‖b‖₂ for the current x (the absolute norm when
// b = 0).
func (s *scratchResidual) Residual() float64 {
	s.a.MulVec(s.r, s.x)
	vec.Sub(s.r, s.b, s.r)
	return vec.Nrm2(s.r) / s.normB
}

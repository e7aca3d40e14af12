package krylov

import (
	"context"
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// StationaryResult reports a stationary-iteration run.
type StationaryResult struct {
	Sweeps    int
	Residual  float64
	Converged bool
}

// InvDiag returns the entrywise reciprocal of the matrix diagonal with
// zero entries mapped to zero — the prepared state every stationary
// iteration in this file consumes. Computing it once per matrix (rather
// than once per call) is what the ...WithInv variants exist for.
func InvDiag(a *sparse.CSR) []float64 {
	diag := a.Diag()
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d != 0 {
			inv[i] = 1 / d
		}
	}
	return inv
}

// Jacobi runs sweeps of the Jacobi iteration x ← x + D⁻¹(b − A·x),
// stopping early when the relative residual drops below tol (tol <= 0
// disables the check). Jacobi is the classical synchronization-heavy
// baseline that asynchronous methods historically relaxed. Repeated
// solves against one matrix should hoist InvDiag and call JacobiWithInv.
func Jacobi(a *sparse.CSR, x, b []float64, sweeps int, tol float64, workers int) StationaryResult {
	return JacobiWithInv(context.Background(), a, InvDiag(a), x, b, sweeps, tol, workers)
}

// JacobiWithInv is Jacobi with a precomputed D⁻¹ (see InvDiag), the
// prepared-state entry point: no per-call diagonal extraction. Each sweep
// forms b − A·x once, tests the tolerance on it, and only then updates x,
// so a converged result reports the residual of the x it returns and
// Sweeps counts the updates applied. It polls ctx before every sweep;
// once ctx is done it stops.
func JacobiWithInv(ctx context.Context, a *sparse.CSR, inv, x, b []float64, sweeps int, tol float64, workers int) StationaryResult {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(inv) != n {
		panic("krylov: Jacobi shape mismatch")
	}
	normB := vec.Nrm2(b)
	if normB == 0 {
		normB = 1
	}
	r := make([]float64, n)
	for done := 0; ; done++ {
		a.MulVecPar(r, x, workers)
		var rn float64
		for i := range r {
			r[i] = b[i] - r[i]
			rn += r[i] * r[i]
		}
		res := sqrtSafe(rn) / normB
		if converged := tol > 0 && res <= tol; converged || done >= sweeps || ctx.Err() != nil {
			return StationaryResult{Sweeps: done, Residual: res, Converged: converged}
		}
		for i := range x {
			x[i] += inv[i] * r[i]
		}
	}
}

// GaussSeidel runs deterministic forward Gauss–Seidel sweeps:
// x_i ← (b_i − Σ_{j≠i} A_ij x_j)/A_ii in row order. It is inherently
// sequential — the baseline whose randomized counterpart the paper builds
// on. Repeated solves against one matrix should hoist InvDiag and call
// GaussSeidelWithInv.
func GaussSeidel(a *sparse.CSR, x, b []float64, sweeps int, tol float64) StationaryResult {
	return GaussSeidelWithInv(context.Background(), a, InvDiag(a), x, b, sweeps, tol)
}

// GaussSeidelWithInv is GaussSeidel with a precomputed D⁻¹ (see InvDiag),
// the prepared-state entry point: no per-call diagonal extraction. It
// polls ctx before every sweep; once ctx is done it stops, and Sweeps
// counts the sweeps run.
func GaussSeidelWithInv(ctx context.Context, a *sparse.CSR, inv, x, b []float64, sweeps int, tol float64) StationaryResult {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(inv) != n {
		panic("krylov: GaussSeidel shape mismatch")
	}
	normB := vec.Nrm2(b)
	if normB == 0 {
		normB = 1
	}
	r := make([]float64, n)
	done := 0
	for ; done < sweeps && ctx.Err() == nil; done++ {
		for i := 0; i < n; i++ {
			if inv[i] == 0 {
				continue
			}
			var dot float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				dot += a.Vals[k] * x[a.ColIdx[k]]
			}
			// dot includes A_ii·x_i; solve for the updated x_i directly.
			x[i] += (b[i] - dot) * inv[i]
		}
		if tol > 0 {
			if res := relResidual(a, x, b, r, normB); res <= tol {
				return StationaryResult{Sweeps: done + 1, Residual: res, Converged: true}
			}
		}
	}
	res := relResidual(a, x, b, r, normB)
	return StationaryResult{Sweeps: done, Residual: res, Converged: tol > 0 && res <= tol}
}

// relResidual returns ‖b−Ax‖₂/normB, forming b−Ax in the caller's
// scratch r (len(b) entries).
func relResidual(a *sparse.CSR, x, b, r []float64, normB float64) float64 {
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	return vec.Nrm2(r) / normB
}

func sqrtSafe(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Package krylov implements the Krylov-subspace and stationary baselines
// the paper compares against: conjugate gradients (single-RHS, with the
// round-robin parallel SpMV the paper uses for its skewed test matrix,
// and multi-RHS), Notay's Flexible-CG for preconditioners that change
// between applications (such as AsyRGS), Jacobi, classical Gauss–Seidel
// and chaotic-relaxation Jacobi.
//
// Each solver is a step: a value built from the system and the initial
// guess whose Step advances x by one iteration or sweep and whose
// Residual reports ‖b−Ax‖₂/‖b‖₂. Nothing here decides when a solve stops;
// the caller drives the step with outer.Run, which owns the tolerance,
// the budget and the context (CG, FCG and Jacobi, whose residual comes
// with the step, with outer.RunEveryStep). CGDense, the paper's Figure
// 1–2 block CG, runs a fixed number of iterations.
package krylov

// Preconditioner approximates z ≈ M⁻¹·r for FCG. The operator M
// may differ on every call (e.g. a randomized asynchronous solver); plain
// CG is not guaranteed to converge with such preconditioners, which is
// why the paper pairs AsyRGS with Flexible-CG.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Identity is the trivial preconditioner z = r.
type Identity struct{}

// Apply implements Preconditioner.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// PrecondFunc adapts a function to the Preconditioner interface.
type PrecondFunc func(z, r []float64)

// Apply implements Preconditioner.
func (f PrecondFunc) Apply(z, r []float64) { f(z, r) }

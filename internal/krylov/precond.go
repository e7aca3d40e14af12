// Package krylov implements the Krylov-subspace and stationary baselines
// the paper compares against: conjugate gradients (single-RHS, with the
// round-robin parallel SpMV the paper uses for its skewed test matrix,
// and multi-RHS), Notay's Flexible-CG for preconditioners that change
// between applications (such as AsyRGS), Jacobi, and classical
// Gauss–Seidel.
package krylov

// Preconditioner approximates z ≈ M⁻¹·r for FlexibleCG. The operator M
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

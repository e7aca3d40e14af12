package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/spectral"
	"github.com/asynclinalg/asyrgs/internal/theory"
)

// ErrNoGuarantee is returned by SolveWithGuarantee when Theorem 3's
// progress coefficient ν_τ(β) is not positive at the solver's parameters,
// so no epoch count can certify the requested reduction.
var ErrNoGuarantee = errors.New("core: theorem bound is vacuous at these parameters (ν_τ(β) ≤ 0)")

// Guarantee describes the a-priori certificate computed by
// SolveWithGuarantee before any iteration runs.
type Guarantee struct {
	// Epochs is the number of synchronize-and-restart epochs executed.
	Epochs int
	// EpochIterations is the length of each epoch: max(n, T₀) as the
	// Theorem 2 discussion prescribes (λmax ≥ 1 for unit diagonal makes n
	// iterations always sufficient; for general matrices T₀ is used).
	EpochIterations int
	// EpochFactor is the certified per-epoch contraction 1 − ν_τ(β)/2κ.
	EpochFactor float64
	// ExpectedReduction bounds E‖x−x*‖²_A / E₀ after all epochs.
	ExpectedReduction float64
	// FailureProb is the Markov-inequality confidence: with probability
	// at least 1−FailureProb the A-norm error is reduced by the requested
	// eps factor.
	FailureProb float64
}

// SolveWithGuarantee runs the occasional-synchronization scheme of the
// paper's Theorem 2 discussion: asynchronous epochs separated by barriers,
// with the epoch count chosen *a priori* from Theorem 3 so that
//
//	Pr( ‖x − x*‖_A ≥ eps·‖x₀ − x*‖_A ) ≤ delta .
//
// Unlike a solve to a tolerance it never inspects the residual to decide
// progress — the certificate is purely analytical, which is the form of
// guarantee the paper's theory delivers. tau is the delay bound assumed
// for the certificate (the reference-scenario guidance is τ = O(P); pass
// the worker count when in doubt). The spectral estimate is computed
// internally with a Lanczos sweep when lambdaMin/lambdaMax are zero.
func (s *Solver) SolveWithGuarantee(x, b []float64, eps, delta float64, tau int, lambdaMin, lambdaMax float64) (Guarantee, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return Guarantee{}, fmt.Errorf("core: need eps, delta in (0,1), got %g, %g", eps, delta)
	}
	if lambdaMin <= 0 || lambdaMax <= 0 {
		est := spectral.EstimateSPD(s.a, 2*minInt(s.a.Rows, 100), s.opts.Seed^0x5ca1ab1e)
		lambdaMin, lambdaMax = est.LambdaMin, est.LambdaMax
	}
	// The analysis lives in the unit-diagonal scaling; evaluate ρ there.
	scaled, err := s.unitScaled()
	if err != nil {
		return Guarantee{}, fmt.Errorf("core: cannot certify a matrix without positive diagonal: %w", err)
	}
	p := theory.NewParams(scaled, lambdaMin, lambdaMax, tau, s.beta)
	factor, ok := p.ConsistentEpochFactor()
	if !ok {
		return Guarantee{}, fmt.Errorf("%w: %v", ErrNoGuarantee, p)
	}
	// Markov: Pr(‖e‖ ≥ eps‖e₀‖) = Pr(‖e‖² ≥ eps²‖e₀‖²) ≤ E/(eps²E₀).
	// Need factor^epochs ≤ delta·eps².
	target := delta * eps * eps
	epochs := int(math.Ceil(math.Log(target) / math.Log(factor)))
	if epochs < 1 {
		epochs = 1
	}
	epochLen := theory.EpochLength(lambdaMax, p.N)
	if epochLen < s.a.Rows {
		epochLen = s.a.Rows // n iterations always cover T₀ when λmax ≥ 1
	}
	g := Guarantee{
		Epochs:            epochs,
		EpochIterations:   epochLen,
		EpochFactor:       factor,
		ExpectedReduction: math.Pow(factor, float64(epochs)),
		FailureProb:       delta,
	}
	// Execute: each epoch is a barrier-separated asynchronous burst. The
	// epoch boundary is exactly the synchronization point of the scheme.
	sweepsPerEpoch := (epochLen + s.a.Rows - 1) / s.a.Rows
	for e := 0; e < epochs; e++ {
		s.AsyncSweeps(x, b, sweepsPerEpoch)
	}
	return g, nil
}

// unitScaled returns the unit-diagonal scaling D·A·D, D = diag(A)^{-1/2},
// in which the theorems define ρ and ρ₂; A itself when its diagonal is
// already unit.
func (s *Solver) unitScaled() (*sparse.CSR, error) {
	if hasUnitDiag(s.diag) {
		return s.a, nil
	}
	scaled, _, err := sparse.UnitDiagonalScale(s.a)
	return scaled, err
}

func hasUnitDiag(diag []float64) bool {
	for _, d := range diag {
		if math.Abs(d-1) > 1e-12 {
			return false
		}
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

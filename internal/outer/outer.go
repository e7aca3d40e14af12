// Package outer is the outer loop of the iterative solves: advance a
// round of work, measure the residual, and stop at the tolerance, the
// budget or the context. In the paper's occasional-synchronization scheme
// (Theorem 2 discussion) the residual check is the barrier between
// free-running epochs and the place a solve decides to stop; Run writes
// that decision once for every solver that advances in rounds.
//
// A round is either a fixed number of units or, by default, predicted:
// the paper's solvers converge at a linear rate (a fixed contraction per
// epoch, Theorems 3–4), so the residuals already measured give the unit
// at which the tolerance will be crossed, and Run measures near that unit
// instead of after every one.
//
// A measured residual that is NaN or ±Inf ends the solve at once: a
// diverged iterate cannot come back under a tolerance, and the rest of
// the budget would only be spent producing it.
package outer

import (
	"context"
	"errors"
	"math"
)

// ErrNonFinite is returned by Run at the first measured residual that is
// NaN or ±Inf.
var ErrNonFinite = errors.New("residual is not finite")

// Progress reports where a Run stopped.
type Progress struct {
	// Done counts the units of work advanced.
	Done int
	// Residual is the last measured residual; zero when none was measured.
	Residual float64
	// Converged reports whether the last measured residual met the
	// tolerance.
	Converged bool
	// Checks counts the residuals measured.
	Checks int
}

// margin is the share of the predicted units left to the tolerance that
// a predicted round runs: a residual that falls up to a quarter faster
// than fitted still crosses after the round, which costs one more short
// round instead of an overshoot.
const margin = 0.8

// Run advances up to budget units of work in rounds and measures the
// residual once after each round. It stops at the first round whose
// residual r has tol > 0 && r ≤ tol, so a non-positive tol runs the whole
// budget (fixed work). A budget ≤ 0 advances nothing and measures once.
// The last round is always cut to the budget, and a solve stops only on a
// measured residual or at the budget: the reported residual is never a
// prediction. At the first measured residual that is NaN or ±Inf, Run
// returns ErrNonFinite, with the Progress reporting that residual.
//
// every > 0 makes every round every units long. every ≤ 0 selects the
// predicted schedule. With tol ≤ 0 it runs the whole budget as one round.
// Otherwise it fits the per-unit contraction from the first and the latest
// measured residual and runs ⌊0.8 × the predicted units left to tol⌋,
// capped at twice the units already done. It falls back to one-unit rounds
// while the residual has not fallen since the first measurement, so the
// first two rounds are one unit each.
//
// advance(k) runs at most k units and returns how many it ran; a round
// calls it until the round's units are spent, so the caller chooses how
// long one uninterruptible call may be. An advance that returns 0 can take
// no further step (a Krylov breakdown): Run measures the residual once
// more and stops there, converged or not. Run polls ctx before
// every advance call and again after each round. A round during which
// ctx turned done is not measured: Run returns ctx's error, with Done
// counting the units advanced.
func Run(ctx context.Context, tol float64, budget, every int, advance func(k int) int, measure func() float64) (Progress, error) {
	return run(ctx, tol, budget, every, false, advance, measure)
}

// RunEveryStep is Run for a step that forms its residual as it advances
// (a Krylov or Jacobi iteration), so that a measurement costs nothing: it
// measures the initial iterate before the first advance and then after
// every unit. An initial guess that already meets tol takes no step
// (Done 0, Checks 1).
func RunEveryStep(ctx context.Context, tol float64, budget int, advance func(k int) int, measure func() float64) (Progress, error) {
	return run(ctx, tol, budget, 1, true, advance, measure)
}

// run is Run with a first round of zero units when measureFirst is set.
func run(ctx context.Context, tol float64, budget, every int, measureFirst bool, advance func(k int) int, measure func() float64) (Progress, error) {
	var p Progress
	var first float64 // the first measured residual
	firstDone := 0
	for {
		round := every
		switch {
		case measureFirst && p.Checks == 0:
			round = 0
		case every <= 0:
			round = p.predict(tol, budget, first, firstDone)
		}
		stalled := false
		for end := p.Done + min(round, budget-p.Done); p.Done < end && !stalled; {
			if err := ctx.Err(); err != nil {
				return p, err
			}
			k := advance(end - p.Done)
			p.Done += k
			stalled = k == 0
		}
		if err := ctx.Err(); err != nil {
			return p, err
		}
		p.Residual = measure()
		p.Checks++
		if math.IsNaN(p.Residual) || math.IsInf(p.Residual, 0) {
			return p, ErrNonFinite
		}
		if p.Checks == 1 {
			first, firstDone = p.Residual, p.Done
		}
		p.Converged = tol > 0 && p.Residual <= tol
		if p.Converged || stalled || p.Done >= budget {
			return p, nil
		}
	}
}

// predict returns the length of the next round of the predicted schedule,
// from one unit up to the budget left, given the first residual measured
// (after firstDone units) and the progress so far. The length is clamped
// in float64 before it becomes an int: a near-flat residual predicts a
// huge or infinite length, and a NaN length (from residuals at the ends
// of the float range) falls back to one unit.
func (p Progress) predict(tol float64, budget int, first float64, firstDone int) int {
	rest := budget - p.Done
	switch {
	case tol <= 0:
		return rest
	case !(p.Residual < first): // nothing measured yet, or no fall since the first
		return 1
	}
	perUnit := math.Log(p.Residual/first) / float64(p.Done-firstDone)
	n := min(math.Floor(margin*math.Log(tol/p.Residual)/perUnit), 2*float64(p.Done))
	switch {
	case !(n >= 1):
		return 1
	case n >= float64(rest):
		return rest
	}
	return int(n)
}

// Package outer is the outer loop of the iterative solves: advance a
// round of work, measure the residual, and stop at the tolerance, the
// budget or the context. In the paper's occasional-synchronization scheme
// (Theorem 2 discussion) the residual check is the barrier between
// free-running epochs and the place a solve decides to stop; Run writes
// that decision once for every solver that advances in rounds.
package outer

import "context"

// Progress reports where a Run stopped.
type Progress struct {
	// Done counts the units of work advanced.
	Done int
	// Residual is the last measured residual; zero when none was measured.
	Residual float64
	// Converged reports whether the last measured residual met the
	// tolerance.
	Converged bool
}

// Run advances up to budget units of work in rounds of every units
// (every < 1 counts as 1, and the last round is cut to the budget) and
// measures the residual once after each round. It stops at the first
// round whose residual r has tol > 0 && r ≤ tol, so a non-positive tol
// runs the whole budget (fixed work). A budget ≤ 0 advances nothing and
// measures once.
//
// advance(k) runs at most k units and returns how many it ran, at least
// one; a round calls it until the round's units are spent, so the caller
// chooses how long one uninterruptible call may be. Run polls ctx before
// every advance call and again after each round. A round during which
// ctx turned done is not measured: Run returns ctx's error, with Done
// counting the units advanced.
func Run(ctx context.Context, tol float64, budget, every int, advance func(k int) int, measure func() float64) (Progress, error) {
	var p Progress
	every = max(every, 1)
	for {
		for end := p.Done + min(every, budget-p.Done); p.Done < end; {
			if err := ctx.Err(); err != nil {
				return p, err
			}
			p.Done += advance(end - p.Done)
		}
		if err := ctx.Err(); err != nil {
			return p, err
		}
		p.Residual = measure()
		p.Converged = tol > 0 && p.Residual <= tol
		if p.Converged || p.Done >= budget {
			return p, nil
		}
	}
}

package outer

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
)

// The tests drive Run with scripted advance and measure functions and a
// context whose Err the script sets, so every case is deterministic and
// starts no goroutine.

// flagCtx is a context whose Err the test script sets.
type flagCtx struct {
	context.Context
	err error
}

func (c *flagCtx) Err() error { return c.err }

// script records the calls Run makes. advance runs min(k, step) units
// (all k when step is 0) and then calls onAdvance, if set; measure returns
// curve of the units advanced so far when curve is set, and otherwise the
// next value of residuals, repeating the last one.
type script struct {
	step       int
	ks         []int
	done       int
	measured   int
	measuredAt []int // units advanced at each measure
	residuals  []float64
	curve      func(done int) float64
	onAdvance  func(call int)
}

func (s *script) advance(k int) int {
	s.ks = append(s.ks, k)
	if s.onAdvance != nil {
		s.onAdvance(len(s.ks))
	}
	if s.step > 0 {
		k = min(k, s.step)
	}
	s.done += k
	return k
}

func (s *script) measure() float64 {
	s.measured++
	s.measuredAt = append(s.measuredAt, s.done)
	switch {
	case s.curve != nil:
		return s.curve(s.done)
	case len(s.residuals) == 0:
		return 1
	}
	return s.residuals[min(s.measured, len(s.residuals))-1]
}

func TestNonPositiveBudgetMeasuresOnce(t *testing.T) {
	for _, budget := range []int{0, -3} {
		s := &script{residuals: []float64{0.5}}
		p, err := Run(context.Background(), 1, budget, 4, s.advance, s.measure)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if len(s.ks) != 0 || s.measured != 1 {
			t.Fatalf("budget %d: %d advance calls and %d measures, want 0 and 1", budget, len(s.ks), s.measured)
		}
		if p != (Progress{Done: 0, Residual: 0.5, Converged: true, Checks: 1}) {
			t.Fatalf("budget %d: %+v", budget, p)
		}
	}
}

func TestNonPositiveTolRunsTheWholeBudget(t *testing.T) {
	for _, tol := range []float64{0, -1} {
		// Even a residual of exactly zero does not converge: fixed work.
		s := &script{residuals: []float64{0.5, 0, 0, 0}}
		p, err := Run(context.Background(), tol, 10, 3, s.advance, s.measure)
		if err != nil {
			t.Fatalf("tol %g: %v", tol, err)
		}
		if p.Done != 10 || p.Converged || s.measured != 4 {
			t.Fatalf("tol %g: %+v after %d measures, want 10 units, not converged, 4 measures", tol, p, s.measured)
		}
	}
}

func TestRoundsAreEveryUnitsLong(t *testing.T) {
	cases := []struct {
		name          string
		budget, every int
		step          int
		wantKs        []int
		wantMeasured  int
	}{
		{"last round cut to the budget", 10, 4, 0, []int{4, 4, 2}, 3},
		// With tol 0 the predicted schedule (every ≤ 0) is one round of
		// the whole budget and one measure.
		{"every 0 runs the budget as one round", 3, 0, 0, []int{3}, 1},
		{"negative every runs the budget as one round", 2, -5, 0, []int{2}, 1},
		{"one round of single-unit calls", 3, 0, 1, []int{3, 2, 1}, 1},
		{"one unit per call", 5, 2, 1, []int{2, 1, 2, 1, 1}, 3},
	}
	for _, c := range cases {
		s := &script{step: c.step}
		p, err := Run(context.Background(), 0, c.budget, c.every, s.advance, s.measure)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(s.ks, c.wantKs) || s.measured != c.wantMeasured || p.Done != c.budget {
			t.Fatalf("%s: advance(k) ks %v, %d measures, done %d; want %v, %d, %d",
				c.name, s.ks, s.measured, p.Done, c.wantKs, c.wantMeasured, c.budget)
		}
	}
}

func TestContextDoneMidRoundStopsBeforeTheNextCall(t *testing.T) {
	ctx := &flagCtx{Context: context.Background()}
	s := &script{step: 1}
	s.onAdvance = func(call int) {
		if call == 2 {
			ctx.err = context.Canceled
		}
	}
	p, err := Run(ctx, 1e-9, 100, 4, s.advance, s.measure)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if len(s.ks) != 2 || s.measured != 0 || p.Done != 2 {
		t.Fatalf("%d advance calls, %d measures, done %d; want 2, 0, 2", len(s.ks), s.measured, p.Done)
	}
}

func TestRoundCutShortIsNotMeasured(t *testing.T) {
	ctx := &flagCtx{Context: context.Background()}
	s := &script{residuals: []float64{0.5}}
	// The second round's only call is its last; ctx turns done during it.
	s.onAdvance = func(call int) {
		if call == 2 {
			ctx.err = context.DeadlineExceeded
		}
	}
	p, err := Run(ctx, 1e-9, 100, 8, s.advance, s.measure)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if s.measured != 1 || p.Done != 16 || p.Residual != 0.5 || p.Converged {
		t.Fatalf("%+v after %d measures; want 16 units, the first round's residual 0.5, 1 measure", p, s.measured)
	}
}

func TestPreCancelledContextAdvancesNothing(t *testing.T) {
	ctx := &flagCtx{Context: context.Background(), err: context.Canceled}
	s := &script{}
	if p, err := Run(ctx, 1, 10, 1, s.advance, s.measure); !errors.Is(err, context.Canceled) || p.Done != 0 {
		t.Fatalf("%+v, %v", p, err)
	}
	if len(s.ks) != 0 || s.measured != 0 {
		t.Fatalf("%d advance calls and %d measures under a done context", len(s.ks), s.measured)
	}
}

func TestFirstRoundAtOrBelowTolConverges(t *testing.T) {
	s := &script{residuals: []float64{1, 0.5, 0.25, 0.125}}
	p, err := Run(context.Background(), 0.25, 100, 3, s.advance, s.measure)
	if err != nil {
		t.Fatal(err)
	}
	if p != (Progress{Done: 9, Residual: 0.25, Converged: true, Checks: 3}) || s.measured != 3 {
		t.Fatalf("%+v after %d measures; want 9 units, residual 0.25, converged, 3 measures", p, s.measured)
	}
}

// TestRunEveryStepMeasuresTheInitialIterateFirst: RunEveryStep measures
// before it advances and then after every unit, so a guess that already
// meets tol takes no step and a non-finite initial residual stops the
// solve before any work.
func TestRunEveryStepMeasuresTheInitialIterateFirst(t *testing.T) {
	for _, c := range []struct {
		name      string
		residuals []float64
		budget    int
		want      Progress
		err       error
	}{
		{"solved guess", []float64{1e-12, 0.5}, 10, Progress{Done: 0, Residual: 1e-12, Converged: true, Checks: 1}, nil},
		{"converges", []float64{1, 0.5, 0.25, 1e-11}, 10, Progress{Done: 3, Residual: 1e-11, Converged: true, Checks: 4}, nil},
		{"budget", []float64{1, 0.5}, 2, Progress{Done: 2, Residual: 0.5, Checks: 3}, nil},
		{"no budget", []float64{1}, 0, Progress{Done: 0, Residual: 1, Checks: 1}, nil},
		{"non-finite guess", []float64{math.Inf(1)}, 10, Progress{Done: 0, Residual: math.Inf(1), Checks: 1}, ErrNonFinite},
	} {
		s := &script{residuals: c.residuals}
		p, err := RunEveryStep(context.Background(), 1e-10, c.budget, s.advance, s.measure)
		if err != c.err || p != c.want {
			t.Fatalf("%s: %+v, %v; want %+v, %v", c.name, p, err, c.want, c.err)
		}
		if !slices.Equal(s.measuredAt, intsUpTo(p.Done)) || slices.ContainsFunc(s.ks, func(k int) bool { return k != 1 }) {
			t.Fatalf("%s: measured at %v with advance calls %v; want one unit per call, measured at 0..%d", c.name, s.measuredAt, s.ks, p.Done)
		}
	}
}

// intsUpTo returns 0, 1, …, n.
func intsUpTo(n int) []int {
	s := make([]int, n+1)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestNonFiniteResidualStopsTheSolve: the first NaN or ±Inf residual ends
// the solve with ErrNonFinite at the round that measured it, on a fixed
// and on the predicted schedule, whatever the tolerance; the Progress
// reports the residual and the units advanced.
func TestNonFiniteResidualStopsTheSolve(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tol := range []float64{0.1, 0} {
			s := &script{residuals: []float64{0.9, 0.8, bad, 0.5}}
			p, err := Run(context.Background(), tol, 40, 2, s.advance, s.measure)
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%g, tol %g: err %v, want ErrNonFinite", bad, tol, err)
			}
			if p.Done != 6 || p.Checks != 3 || s.measured != 3 || p.Converged || !math.IsNaN(p.Residual) && !math.IsInf(p.Residual, 0) {
				t.Fatalf("%g, tol %g: %+v after %d measures; want 6 units, 3 checks, the non-finite residual", bad, tol, p, s.measured)
			}
		}
	}
}

// TestStalledAdvanceMeasuresOnceMoreAndStops: an advance that returns 0
// (a Krylov breakdown) ends its round; Run measures the residual and
// stops, converged only if that residual meets tol.
func TestStalledAdvanceMeasuresOnceMoreAndStops(t *testing.T) {
	for _, c := range []struct {
		name      string
		stallAt   int // the advance call that returns 0
		residual  float64
		wantDone  int
		converged bool
	}{
		{"stalled at once, already solved", 1, 0, 0, true},
		{"stalled at once, unsolved", 1, 0.5, 0, false},
		{"stalled mid-round", 6, 0.5, 5, false},
	} {
		calls := 0
		ks := 0
		advance := func(k int) int {
			calls++
			if calls >= c.stallAt {
				return 0
			}
			ks++
			return 1
		}
		measured := 0
		measure := func() float64 { measured++; return c.residual }
		p, err := Run(context.Background(), 1e-3, 100, 4, advance, measure)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Done != c.wantDone || p.Converged != c.converged || calls != c.stallAt || p.Checks != measured {
			t.Fatalf("%s: %+v after %d advance calls and %d measures; want %d units, converged %v, %d calls",
				c.name, p, calls, measured, c.wantDone, c.converged, c.stallAt)
		}
	}
}

// The predicted-schedule tests below script the residual as a function of
// the units advanced, so each names the convergence regime it scripts.

// geometric returns the residual curve rate^done.
func geometric(rate float64) func(int) float64 {
	return func(done int) float64 { return math.Pow(rate, float64(done)) }
}

// rounds returns the length of each measured round.
func (s *script) rounds() []int {
	out := make([]int, len(s.measuredAt))
	prev := 0
	for i, d := range s.measuredAt {
		out[i], prev = d-prev, d
	}
	return out
}

// Regime: linear convergence, the paper's rate (a fixed contraction per
// unit). The fitted rate is exact, so the prediction stops at the same unit
// as a measure after every unit.
func TestPredictedGeometricConvergesAtTheSameUnit(t *testing.T) {
	for _, c := range []struct {
		rate     float64
		crossing int
	}{{0.5, 24}, {0.55, 23}, {0.9, 40}, {0.95, 177}, {0.99, 478}} {
		// tol sits half a unit above the crossing.
		tol := math.Pow(c.rate, float64(c.crossing)-0.5)
		each := &script{curve: geometric(c.rate)}
		pe, err := Run(context.Background(), tol, 10_000, 1, each.advance, each.measure)
		if err != nil || !pe.Converged || pe.Done != c.crossing {
			t.Fatalf("rate %g every 1: %+v, %v; want converged at %d", c.rate, pe, err, c.crossing)
		}
		pred := &script{curve: geometric(c.rate)}
		pp, err := Run(context.Background(), tol, 10_000, 0, pred.advance, pred.measure)
		if err != nil {
			t.Fatal(err)
		}
		if pp.Done != pe.Done || !pp.Converged || pp.Residual != pe.Residual {
			t.Fatalf("rate %g: predicted stopped at %+v, every 1 at %+v", c.rate, pp, pe)
		}
		if pp.Checks != pred.measured || 3*pp.Checks > pe.Checks {
			t.Fatalf("rate %g: %d checks (%d measures) against %d for every 1; want at most a third",
				c.rate, pp.Checks, pred.measured, pe.Checks)
		}
	}
}

// Regime: accelerating convergence, the shape of lsqcd's trajectory. Two
// slow units are followed by a much faster steady rate, so the rate fitted
// after the second unit predicts about 645 units left; a round of 80% of
// that would run some 490 units past the crossing. The cap of twice the
// units done holds each round to what has been seen, so the solve stops
// within one round of the crossing.
func TestPredictedAcceleratingOvershootsByAtMostOneRound(t *testing.T) {
	curve := func(done int) float64 {
		switch done {
		case 0:
			return 1
		case 1:
			return 0.95
		}
		return 0.93 * math.Pow(0.6, float64(done-2))
	}
	const tol = 1e-6
	crossing := 1
	for curve(crossing) > tol {
		crossing++
	}
	s := &script{curve: curve}
	p, err := Run(context.Background(), tol, 10_000, 0, s.advance, s.measure)
	if err != nil || !p.Converged {
		t.Fatalf("%+v, %v", p, err)
	}
	rounds := s.rounds()
	last := rounds[len(rounds)-1]
	if p.Done < crossing || p.Done-last >= crossing {
		t.Fatalf("stopped at %d after a last round of %d; the crossing is at %d", p.Done, last, crossing)
	}
	for i, r := range rounds[1:] {
		if before := s.measuredAt[i]; r > 2*before {
			t.Fatalf("round %d ran %d units after %d; the cap is twice the units done", i+2, r, before)
		}
	}
	if p.Done > crossing+1 {
		t.Fatalf("stopped at %d, %d units past the crossing at %d (rounds %v)", p.Done, p.Done-crossing, crossing, rounds)
	}
}

// Regime: no convergence. A residual that is flat, rising, or back at or
// above its first value gives no rate to fit, so every round after it is
// one unit.
func TestPredictedFlatOrRisingFallsBackToOneUnit(t *testing.T) {
	ones := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	// A fall from 1 to 0.5 over the second unit predicts a round of four.
	fallThenRise := []int{1, 1, 4, 1, 1, 1, 1, 1, 1}
	for _, c := range []struct {
		name       string
		residuals  []float64
		wantRounds []int
	}{
		{"flat", []float64{1}, ones},
		{"rising", []float64{1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2, 2.1}, ones},
		{"above the first", []float64{1, 0.5, 2}, fallThenRise},
		{"back to the first", []float64{1, 0.5, 1}, fallThenRise},
	} {
		s := &script{residuals: c.residuals}
		p, err := Run(context.Background(), 1e-6, 12, 0, s.advance, s.measure)
		if err != nil {
			t.Fatal(err)
		}
		if p.Converged || p.Done != 12 || p.Checks != len(c.wantRounds) || !slices.Equal(s.rounds(), c.wantRounds) {
			t.Fatalf("%s: %+v, rounds %v; want 12 units, not converged, rounds %v", c.name, p, s.rounds(), c.wantRounds)
		}
	}
}

// Regime: fixed work. A non-positive tol measures once, at the budget.
func TestPredictedNonPositiveTolMeasuresOnceAtTheBudget(t *testing.T) {
	for _, tol := range []float64{0, -1} {
		s := &script{curve: geometric(0.5)}
		p, err := Run(context.Background(), tol, 10, 0, s.advance, s.measure)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.ks, []int{10}) || p.Checks != 1 || p.Done != 10 || p.Converged {
			t.Fatalf("tol %g: advance(k) ks %v, %+v; want one call of 10 and one check", tol, s.ks, p)
		}
	}
}

// Regime: a slow linear rate against a short budget. The predicted rounds
// grow, but the last one is cut to the budget; so are an explicit every's.
func TestBudgetIsNeverPassed(t *testing.T) {
	for _, every := range []int{0, 3, 7} {
		for budget := 1; budget <= 30; budget++ {
			s := &script{curve: geometric(0.99)}
			p, err := Run(context.Background(), 1e-9, budget, every, s.advance, s.measure)
			if err != nil {
				t.Fatal(err)
			}
			if p.Done != budget || s.done != budget || p.Converged {
				t.Fatalf("every %d budget %d: %+v after %d units", every, budget, p, s.done)
			}
			if every > 0 {
				for i, r := range s.rounds() {
					if r != every && i != len(s.rounds())-1 {
						t.Fatalf("every %d budget %d: rounds %v", every, budget, s.rounds())
					}
				}
			}
		}
	}
}

// Regime: residuals at the ends of the float range. The rates they feed
// the prediction (an underflowing quotient, a NaN length from −Inf/−Inf)
// still give rounds of one unit up to the budget left, and never a
// convergence above tol.
func TestPredictedExtremeResidualsStayWithinTheBudget(t *testing.T) {
	for name, c := range map[string]struct {
		tol       float64
		residuals []float64
	}{
		"NaN length":            {1e-300, []float64{math.MaxFloat64, 1e300}},
		"underflowing quotient": {1e-320, []float64{1e300, 1e-30, 1e-31}},
		"rise after a fall":     {1e-6, []float64{1, 0.9, 1e300, 0.8}},
		"tiny above tol":        {1e-310, []float64{1e-300, 1e-305}},
	} {
		s := &script{residuals: c.residuals}
		p, err := Run(context.Background(), c.tol, 40, 0, s.advance, s.measure)
		if err != nil {
			t.Fatal(err)
		}
		if p.Converged && !(p.Residual <= c.tol) {
			t.Fatalf("%s: converged at residual %g", name, p.Residual)
		}
		if !p.Converged && (p.Done != 40 || s.done != 40) {
			t.Fatalf("%s: %+v after %d units; want the budget of 40", name, p, s.done)
		}
		for _, k := range s.ks {
			if k < 1 || k > 40 {
				t.Fatalf("%s: advance(%d), outside [1, 40] (ks %v)", name, k, s.ks)
			}
		}
	}
}

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
// (all k when step is 0) and then calls onAdvance, if set; measure
// returns the next value of residuals, repeating the last one.
type script struct {
	step      int
	ks        []int
	measured  int
	residuals []float64
	onAdvance func(call int)
}

func (s *script) advance(k int) int {
	s.ks = append(s.ks, k)
	if s.onAdvance != nil {
		s.onAdvance(len(s.ks))
	}
	if s.step > 0 {
		return min(k, s.step)
	}
	return k
}

func (s *script) measure() float64 {
	s.measured++
	if len(s.residuals) == 0 {
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
		if p != (Progress{Done: 0, Residual: 0.5, Converged: true}) {
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
		{"every 0 counts as 1", 3, 0, 0, []int{1, 1, 1}, 3},
		{"negative every counts as 1", 2, -5, 0, []int{1, 1}, 2},
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
	if p != (Progress{Done: 9, Residual: 0.25, Converged: true}) || s.measured != 3 {
		t.Fatalf("%+v after %d measures; want 9 units, residual 0.25, converged, 3 measures", p, s.measured)
	}
}

func TestNaNResidualNeverConverges(t *testing.T) {
	s := &script{residuals: []float64{math.NaN()}}
	p, err := Run(context.Background(), 1, 4, 2, s.advance, s.measure)
	if err != nil {
		t.Fatal(err)
	}
	if p.Converged || p.Done != 4 || !math.IsNaN(p.Residual) {
		t.Fatalf("%+v", p)
	}
}

package method_test

import (
	"context"
	"errors"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// scheduleRHS is the number of generated right-hand sides each entry of
// TestPredictedScheduleMatchesCheckingEverySweep solves; the sweep bounds
// hold for their means.
const scheduleRHS = 16

// TestPredictedScheduleMatchesCheckingEverySweep compares the default
// (predicted) check schedule with check_every 1 on the catalogue systems
// of the benchmark's mixed-small workload, for the methods that predict.
//
// Regime: bit-exact single worker. A 1-worker solve is a pure function of
// its inputs, so both schedules see the same residual after every sweep
// and differ only in which sweeps they measure. The predicted one can
// therefore never stop earlier, and where it stops at the same sweep the
// iterate and residual are identical. It stops later when the residual
// falls faster than the rate fitted so far; Kaczmarz's residual falls in
// steps with plateaus between them, so its bound is relative.
func TestPredictedScheduleMatchesCheckingEverySweep(t *testing.T) {
	for _, c := range []struct {
		method string
		a      *sparse.CSR
		budget int
		// slack is the bound on the mean extra sweeps: absolute, or a share
		// of the mean when relative.
		slack    float64
		relative bool
	}{
		{"asyrgs", workload.Laplacian2D(9, 9), 4000, 1, false},
		{"asyrgs", workload.RandomSPD(96, 5, 1.5, 1), 2000, 1, false},
		{"rgs", workload.RandomSPD(96, 5, 1.5, 5), 4000, 1, false},
		{"lsqcd", workload.RandomOverdetermined(192, 48, 4, 4), 40000, 1, false},
		{"kaczmarz", workload.RandomSPD(96, 5, 1.5, 1), 80000, 0.05, true},
	} {
		m, err := method.Get(c.method)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := method.Prepare(context.Background(), m, c.a, method.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		var sweepsEach, sweepsPred, checksEach, checksPred int
		for seed := uint64(1); seed <= scheduleRHS; seed++ {
			b := make([]float64, c.a.Rows)
			if m.Kind() == method.SPD {
				workload.RHSForSolutionInto(c.a, seed, b, make([]float64, c.a.Cols))
			} else {
				workload.RandomRHSInto(seed, b)
			}
			opts := method.Opts{Tol: 1e-6, MaxSweeps: c.budget, Workers: 1, CheckEvery: 1}
			xEach := make([]float64, c.a.Cols)
			each, err := ps.Solve(context.Background(), b, xEach, opts)
			if err != nil {
				t.Fatalf("%s n=%d seed %d, check_every 1: %v", c.method, c.a.Rows, seed, err)
			}
			opts.CheckEvery = 0
			xPred := make([]float64, c.a.Cols)
			pred, err := ps.Solve(context.Background(), b, xPred, opts)
			if err != nil {
				t.Fatalf("%s n=%d seed %d, predicted: %v", c.method, c.a.Rows, seed, err)
			}
			if each.Checks != each.Sweeps {
				t.Fatalf("%s n=%d seed %d: check_every 1 made %d checks in %d sweeps", c.method, c.a.Rows, seed, each.Checks, each.Sweeps)
			}
			switch {
			case pred.Sweeps < each.Sweeps:
				t.Fatalf("%s n=%d seed %d: predicted stopped at sweep %d, before the crossing at %d", c.method, c.a.Rows, seed, pred.Sweeps, each.Sweeps)
			case pred.Sweeps == each.Sweeps && (!vec.Equal(xPred, xEach, 0) || pred.Residual != each.Residual):
				t.Fatalf("%s n=%d seed %d: both stopped at sweep %d, but residuals %v and %v", c.method, c.a.Rows, seed, pred.Sweeps, pred.Residual, each.Residual)
			}
			sweepsEach += each.Sweeps
			sweepsPred += pred.Sweeps
			checksEach += each.Checks
			checksPred += pred.Checks
		}
		extra := float64(sweepsPred-sweepsEach) / scheduleRHS
		bound := c.slack
		if c.relative {
			bound *= float64(sweepsEach) / scheduleRHS
		}
		if extra > bound {
			t.Errorf("%s n=%d: predicted ran %.2f more sweeps per solve than check_every 1 (%d against %d), bound %.2f",
				c.method, c.a.Rows, extra, sweepsPred, sweepsEach, bound)
		}
		if 2*checksPred > checksEach {
			t.Errorf("%s n=%d: predicted made %d checks against %d; want at most half", c.method, c.a.Rows, checksPred, checksEach)
		}
	}
}

// TestBlockBatchSharesOneCheckCount pins that the columns of a core block
// SolveBatch share one outer loop, and so one count of checks, under the
// predicted schedule. Regime: bit-exact single worker.
func TestBlockBatchSharesOneCheckCount(t *testing.T) {
	a := workload.Laplacian2D(9, 9)
	ps, err := method.Prepare(context.Background(), mustGet(t, "asyrgs"), a, method.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{workload.RandomRHS(a.Rows, 1), workload.RandomRHS(a.Rows, 2)}
	xs := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}
	results, err := ps.SolveBatch(context.Background(), bs, xs, method.Opts{Tol: 1e-6, MaxSweeps: 4000, Workers: 1})
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		t.Fatal(err)
	}
	for j, r := range results {
		if !r.Converged || r.Checks != results[0].Checks || 3*r.Checks > r.Sweeps {
			t.Fatalf("column %d: %+v; want converged with column 0's %d checks, at most a third of its %d sweeps",
				j, r, results[0].Checks, r.Sweeps)
		}
	}
}

func mustGet(t *testing.T, name string) method.Method {
	t.Helper()
	m, err := method.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

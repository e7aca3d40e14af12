// Allocation regression tests for the zero-allocation warm path: once a
// system is prepared and the solver pool is warm, a sequential Solve for
// the core family, fixed-work or on the predicted check schedule, must
// not allocate at all — the
// direction buffer, residual scratch and the solver itself are all
// recycled. The other sequential families allocate per solve, but not
// per sweep or per check. Run in CI's plain test step; skipped under
// -race, where the detector's instrumentation changes allocation
// accounting.
package method_test

import (
	"context"
	"errors"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func TestWarmPreparedSolveZeroAllocCoreFamily(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	a := workload.RandomSPD(300, 6, 1.5, 17)
	b := workload.RandomRHS(300, 18)
	for _, name := range []string{"asyrgs", "asyrgs-weighted", "asyrgs-partitioned", "rgs"} {
		t.Run(name, func(t *testing.T) {
			m, err := method.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			// Workers: 1 pins the sequential path: the asynchronous one
			// spawns goroutines, which allocate by nature (their stacks).
			// An unreachable tol keeps the predicted rounds going to the
			// budget.
			for _, opts := range []method.Opts{
				{Tol: 0, MaxSweeps: 2, CheckEvery: 2, Workers: 1, Seed: 9},
				{Tol: 1e-300, MaxSweeps: 12, Workers: 1, Seed: 9},
			} {
				ps, err := method.Prepare(context.Background(), m, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, 300)
				solve := func() {
					if _, err := ps.Solve(context.Background(), b, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
						t.Fatal(err)
					}
				}
				solve() // warm the solver pool and its scratch
				if avg := testing.AllocsPerRun(20, solve); avg != 0 {
					t.Fatalf("check_every %d: warm prepared Solve allocated %.1f times per run, want 0", opts.CheckEvery, avg)
				}
			}
		})
	}
}

// TestWarmSolveAllocsIndependentOfBudget: at 1 worker, a warm prepared
// Solve of the stationary, Krylov, Kaczmarz and least-squares methods
// allocates a fixed amount whatever its sweep budget. Per-sweep and
// per-check vectors live in per-call or per-solver scratch. An
// unreachable tol keeps every solve going to its budget. fcg is left out:
// it keeps every search direction by design.
func TestWarmSolveAllocsIndependentOfBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	spd := workload.RandomSPD(96, 6, 1.5, 17)
	ls := workload.RandomOverdetermined(192, 48, 6, 17)
	for _, name := range []string{"gs", "jacobi", "cg", "kaczmarz", "lsqcd", "lsqcd-weighted"} {
		t.Run(name, func(t *testing.T) {
			m, err := method.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			a := spd
			if m.Kind() == method.LeastSquares {
				a = ls
			}
			b := workload.RandomRHS(a.Rows, 18)
			allocs := func(sweeps int) float64 {
				opts := method.Opts{Tol: 1e-300, MaxSweeps: sweeps, Workers: 1, Seed: 9}
				ps, err := method.Prepare(context.Background(), m, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, a.Cols)
				solve := func() {
					clear(x)
					res, err := ps.Solve(context.Background(), b, x, opts)
					if err != nil && !errors.Is(err, method.ErrNotConverged) {
						t.Fatal(err)
					}
					if res.Sweeps != sweeps {
						t.Fatalf("ran %d sweeps, want the budget %d", res.Sweeps, sweeps)
					}
				}
				solve()
				return testing.AllocsPerRun(10, solve)
			}
			if few, many := allocs(8), allocs(64); few != many {
				t.Fatalf("warm Solve allocated %.1f times at max_sweeps 8 and %.1f at 64, want the same", few, many)
			}
		})
	}
}

// TestChunkOptFlowsThroughRegistry checks the -chunk plumbing: an
// explicit claiming granularity must reach the core solver and still
// execute the exact iteration budget.
func TestChunkOptFlowsThroughRegistry(t *testing.T) {
	a := workload.RandomSPD(80, 5, 1.5, 19)
	b := workload.RandomRHS(80, 20)
	m, err := method.Get("asyrgs")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 32, 10000} {
		x := make([]float64, 80)
		res, err := m.Solve(context.Background(), a, b, x, method.Opts{
			Tol: 0, MaxSweeps: 4, CheckEvery: 4, Workers: 4, Chunk: chunk, Seed: 2,
		})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if res.Iterations != 4*80 {
			t.Fatalf("chunk=%d: executed %d iterations, want %d", chunk, res.Iterations, 4*80)
		}
	}
	x := make([]float64, 80)
	if _, err := m.Solve(context.Background(), a, b, x, method.Opts{MaxSweeps: 1, Chunk: -3}); err == nil {
		t.Fatal("negative chunk must be rejected")
	}
}

// TestWarmLSQSolveAllocs pins what a warm 1-worker least-squares solve
// allocates: the solver, its two residual scratch vectors and, for the
// sequential variants, the running residual of iteration (20). ‖Aᵀb‖,
// the scale of the relative residual, is formed in the solver's scratch,
// with no zero iterate and no A·0 product.
func TestWarmLSQSolveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	a := workload.RandomOverdetermined(192, 48, 6, 17)
	b := workload.RandomRHS(a.Rows, 18)
	for _, tc := range []struct {
		name string
		want float64
	}{{"lsqcd", 4}, {"lsqcd-weighted", 4}, {"lsqcd-async", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := method.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			opts := method.Opts{Tol: 1e-300, MaxSweeps: 8, Workers: 1, Seed: 9}
			ps, err := method.Prepare(context.Background(), m, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, a.Cols)
			solve := func() {
				clear(x)
				if _, err := ps.Solve(context.Background(), b, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
					t.Fatal(err)
				}
			}
			solve()
			if got := testing.AllocsPerRun(10, solve); got > tc.want {
				t.Fatalf("warm Solve allocated %.1f times, want at most %.0f", got, tc.want)
			}
		})
	}
}

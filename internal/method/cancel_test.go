package method_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// systemFor builds a system of the right shape for a method's kind.
func systemFor(m method.Method) (a *sparse.CSR, b, x []float64) {
	if m.Kind() == method.LeastSquares {
		a = workload.RandomOverdetermined(300, 100, 5, 17)
		b = workload.RandomRHS(a.Rows, 18)
	} else {
		a = workload.Laplacian2D(20, 20)
		b = workload.RandomRHS(a.Rows, 19)
	}
	return a, b, make([]float64, a.Cols)
}

// TestCancelBeforeSolve: an already-cancelled context must stop every
// registered method before it does any sweeps.
func TestCancelBeforeSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range method.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			a, b, x := systemFor(m)
			res, err := m.Solve(ctx, a, b, x, method.Opts{
				Tol: 1e-300, MaxSweeps: 1 << 30, CheckEvery: 1,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want wrapped context.Canceled, got %v", err)
			}
			if res.Sweeps != 0 {
				t.Fatalf("ran %d sweeps under a pre-cancelled context", res.Sweeps)
			}
		})
	}
}

// countdownCtx cancels itself after a fixed number of Err polls — a
// deterministic stand-in for "the caller cancels mid-run" that cannot
// race against fast solvers.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelMidSolve: cancelling mid-run must stop every method promptly
// — well before its (effectively unbounded) budget.
func TestCancelMidSolve(t *testing.T) {
	for _, m := range method.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			skipNonAtomicUnderRace(t, m.Name())
			a, b, x := systemFor(m)
			ctx := &countdownCtx{Context: context.Background(), after: 5}
			start := time.Now()
			res, err := m.Solve(ctx, a, b, x, method.Opts{
				Tol: 1e-300, MaxSweeps: 1 << 30, CheckEvery: 1, Workers: 2,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want wrapped context.Canceled, got %v (result %+v)", err, res)
			}
			if res.Sweeps >= 1<<30 {
				t.Fatalf("exhausted the budget instead of stopping: %+v", res)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("took %v to honour cancellation", d)
			}
		})
	}
}

// TestDeadlineExceeded: context deadlines surface the same way.
func TestDeadlineExceeded(t *testing.T) {
	m, err := method.Get("asyrgs")
	if err != nil {
		t.Fatal(err)
	}
	a, b, x := systemFor(m)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := m.Solve(ctx, a, b, x, method.Opts{
		Tol: 1e-300, MaxSweeps: 1 << 30, CheckEvery: 1,
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped DeadlineExceeded, got %v", err)
	}
}

// TestEveryMethodStopsWithinASweepOfItsDeadline: with a residual interval
// and a budget only the deadline can end, every registered method (and a
// two-column asyrgs SolveBatch) must return within 1 s of a 100 ms
// deadline, with an error wrapping DeadlineExceeded if it was still
// running when the deadline passed. cg is the exception that ends on its
// own: at tol 1e-300 its recurrence breaks down after about 1 ms. Each
// solve runs in its own goroutine behind a 1 s timer, so a solve that
// ignores its deadline fails the test instead of hanging it.
//
// Async regime: schedule-independent. The assertions bound only the
// return time and the error, never the iterate, so they hold under any
// interleaving of the 2 workers.
func TestEveryMethodStopsWithinASweepOfItsDeadline(t *testing.T) {
	opts := method.Opts{
		Tol: 1e-300, CheckEvery: 1 << 30, MaxSweeps: 1 << 30, Inner: 1 << 20, Workers: 2,
	}
	type solveCase struct {
		name  string
		solve func(ctx context.Context) error
	}
	var cases []solveCase
	for _, m := range method.All() {
		m := m
		a := workload.Laplacian2D(8, 8)
		if m.Kind() == method.LeastSquares {
			a = workload.RandomOverdetermined(128, 64, 4, 23)
		}
		b := workload.RandomRHS(a.Rows, 24)
		cases = append(cases, solveCase{m.Name(), func(ctx context.Context) error {
			_, err := m.Solve(ctx, a, b, make([]float64, a.Cols), opts)
			return err
		}})
	}
	cases = append(cases, solveCase{"asyrgs-batch", func(ctx context.Context) error {
		m, err := method.Get("asyrgs")
		if err != nil {
			return err
		}
		a := workload.Laplacian2D(8, 8)
		ps, err := method.Prepare(ctx, m, a, opts)
		if err != nil {
			return err
		}
		bs := [][]float64{workload.RandomRHS(a.Rows, 25), workload.RandomRHS(a.Rows, 26)}
		_, err = ps.SolveBatch(ctx, bs, [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}, opts)
		return err
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			skipNonAtomicUnderRace(t, c.name)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			deadline, _ := ctx.Deadline()
			type outcome struct {
				err error
				at  time.Time
			}
			done := make(chan outcome, 1)
			go func() {
				err := c.solve(ctx)
				done <- outcome{err, time.Now()}
			}()
			select {
			case out := <-done:
				if out.at.After(deadline) && !errors.Is(out.err, context.DeadlineExceeded) {
					t.Fatalf("returned %v after its deadline, want an error wrapping context.DeadlineExceeded", out.err)
				}
			case <-time.After(time.Second):
				t.Fatal("still running 1 s after a 100 ms deadline")
			}
		})
	}
}

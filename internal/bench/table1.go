package bench

import (
	"context"
	"runtime"
	"time"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/outer"
)

// Table1Row is one row of Table 1: Flexible-CG preconditioned by AsyRGS,
// varying the number of inner (preconditioner) sweeps.
type Table1Row struct {
	InnerSweeps int
	OuterIters  int
	MatOps      int // OuterIters × (InnerSweeps + 1)
	Time        time.Duration
	MatOpsPerS  float64
}

// Table1 reproduces Table 1: Flexible-CG with AsyRGS (inconsistent read)
// as preconditioner, solving the social-media system to relative residual
// 1e-8, for inner sweep counts {30,20,10,5,3,2,1}. The reported values are
// medians over Cfg.Repeats runs (the paper uses 5). The paper's shape:
// outer iterations fall as inner sweeps grow, total mat-ops mostly grow,
// mat-ops/sec grows (more work in the efficient asynchronous part), and
// total time is minimised at ~2 inner sweeps.
func (r *Runner) Table1(tol float64, workers int) []Table1Row {
	r.Prepare()
	if tol <= 0 {
		tol = 1e-8
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) * 4 // the paper's 64 threads on 16 cores
	}
	inner := []int{30, 20, 10, 5, 3, 2, 1}
	rows := make([]Table1Row, 0, len(inner))
	r.printf("\n== Table 1: Flexible-CG + AsyRGS preconditioner (tol=%.0e, %d threads, median of %d) ==\n", tol, workers, r.Cfg.Repeats)
	r.printf("%-8s %-8s %-16s %-12s %-12s\n", "inner", "outer", "outer*(inner+1)", "time", "mat-ops/s")
	for _, is := range inner {
		row := r.runFCGOnce(tol, workers, is)
		rows = append(rows, row)
		r.printf("%-8d %-8d %-16d %-12v %-12.2f\n", row.InnerSweeps, row.OuterIters, row.MatOps, row.Time.Round(time.Millisecond), row.MatOpsPerS)
	}
	return rows
}

// runFCGOnce runs the FCG+AsyRGS combination Repeats times and returns the
// median row for the given inner sweep count. Each run drives the FCG step
// through outer.RunEveryStep, checking the initial guess and every outer
// iteration, for at most 4000 iterations.
func (r *Runner) runFCGOnce(tol float64, workers, innerSweeps int) Table1Row {
	repeats := r.Cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	outers := make([]int, 0, repeats)
	times := make([]time.Duration, 0, repeats)
	for rep := 0; rep < repeats; rep++ {
		solver, err := core.New(r.Gram, core.Options{Workers: workers, Seed: r.Cfg.Seed})
		if err != nil {
			panic(err)
		}
		pre := krylov.PrecondFunc(func(z, rr []float64) {
			solver.Precondition(z, rr, innerSweeps)
		})
		x := make([]float64, r.Gram.Rows)
		var p outer.Progress
		d := timeIt(func() {
			f := krylov.NewFCG(r.Gram, x, r.b1, pre, workers)
			p, _ = outer.RunEveryStep(context.Background(), tol, 4000, f.Step, f.Residual)
		})
		outers = append(outers, p.Done)
		times = append(times, d)
	}
	iters := medianInt(outers)
	t := median(times)
	matOps := iters * (innerSweeps + 1)
	return Table1Row{
		InnerSweeps: innerSweeps,
		OuterIters:  iters,
		MatOps:      matOps,
		Time:        t,
		MatOpsPerS:  float64(matOps) / t.Seconds(),
	}
}

// Fig3Row is one row of Figure 3: FCG+AsyRGS across thread counts for a
// fixed inner sweep count.
type Fig3Row struct {
	Threads    int
	Inner      int
	Time       time.Duration
	OuterIters int
	Speedup    float64 // vs the 1-thread row of the same inner count
}

// Fig3 reproduces Figure 3 (left: time to convergence; right: outer
// iteration count) for inner sweep counts 2 and 10 across the thread
// sweep. The paper's shape: good speedups for both configurations
// (≈32 at 64 threads for 2 sweeps, ≈30 for 10), and an outer iteration
// count that does not grow with threads but is more variable at 2 sweeps.
func (r *Runner) Fig3(tol float64) []Fig3Row {
	r.Prepare()
	if tol <= 0 {
		tol = 1e-8
	}
	rows := make([]Fig3Row, 0, 2*len(r.Cfg.Threads))
	r.printf("\n== Figure 3: Flexible-CG + AsyRGS across threads (tol=%.0e, median of %d) ==\n", tol, r.Cfg.Repeats)
	r.printf("%-8s %-8s %-12s %-8s %-8s\n", "threads", "inner", "time", "outer", "speedup")
	for _, innerSweeps := range []int{2, 10} {
		var base time.Duration
		for _, th := range r.Cfg.Threads {
			run := r.runFCGOnce(tol, th, innerSweeps)
			if base == 0 {
				base = run.Time
			}
			row := Fig3Row{
				Threads: th, Inner: innerSweeps, Time: run.Time,
				OuterIters: run.OuterIters,
				Speedup:    float64(base) / float64(run.Time),
			}
			rows = append(rows, row)
			r.printf("%-8d %-8d %-12v %-8d %-8.2f\n", th, innerSweeps, run.Time.Round(time.Millisecond), row.OuterIters, row.Speedup)
		}
	}
	return rows
}

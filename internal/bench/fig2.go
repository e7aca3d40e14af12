package bench

import (
	"time"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// Fig2LeftRow is one row of the Figure 2 (left) timing sweep.
type Fig2LeftRow struct {
	Threads        int
	AsyRGSTime     time.Duration
	CGTime         time.Duration
	AsyRGSSpeedup  float64 // vs 1 thread
	CGSpeedup      float64
	Oversubscribed bool // threads exceed GOMAXPROCS; wall-clock flattens here
}

// Fig2Left reproduces Figure 2 (left): wall-clock time of 10 sweeps of
// AsyRGS (inconsistent read) and of 10 CG iterations on the multi-RHS
// social-media system, across thread counts. The paper's shape: AsyRGS
// scales almost linearly (speedup ≈48 at 64 threads), CG strays from
// linear as threads grow, and single-thread RGS is slightly faster than CG.
func (r *Runner) Fig2Left() []Fig2LeftRow {
	r.Prepare()
	a := r.Gram
	sweeps := r.Cfg.Sweeps
	rows := make([]Fig2LeftRow, 0, len(r.Cfg.Threads))
	var base Fig2LeftRow
	r.printf("\n== Figure 2 (left): time of %d sweeps, AsyRGS vs CG ==\n", sweeps)
	r.printf("%-8s %-12s %-12s %-10s %-10s %s\n", "threads", "AsyRGS", "CG", "spd(RGS)", "spd(CG)", "")
	for _, th := range r.Cfg.Threads {
		_, over := clampWorkers(th)
		// AsyRGS: 10 sweeps, multi-RHS, fixed direction stream.
		solver, err := core.New(a, core.Options{Workers: th, Seed: r.Cfg.Seed})
		if err != nil {
			panic(err)
		}
		x := vec.NewDense(a.Rows, r.B.Cols)
		asyTime := timeIt(func() { solver.AsyncSweepsDense(x, r.B, sweeps) })

		// CG: 10 iterations; CGDense's SpMM splits rows into contiguous
		// blocks, not the paper's round-robin.
		xc := vec.NewDense(a.Rows, r.B.Cols)
		cgTime := timeIt(func() { krylov.CGDense(a, xc, r.B, sweeps, th, nil) })

		row := Fig2LeftRow{Threads: th, AsyRGSTime: asyTime, CGTime: cgTime, Oversubscribed: over}
		if len(rows) == 0 {
			base = row
		}
		row.AsyRGSSpeedup = float64(base.AsyRGSTime) / float64(asyTime)
		row.CGSpeedup = float64(base.CGTime) / float64(cgTime)
		rows = append(rows, row)
		note := ""
		if over {
			note = "(oversubscribed)"
		}
		r.printf("%-8d %-12v %-12v %-10.2f %-10.2f %s\n", th, asyTime.Round(time.Microsecond), cgTime.Round(time.Microsecond), row.AsyRGSSpeedup, row.CGSpeedup, note)
	}
	return rows
}

// Fig2CenterRow is one row of the Figure 2 (center/right) quality sweep.
type Fig2CenterRow struct {
	Threads        int
	Async          float64 // AsyRGS with atomic writes
	AsyncNonAtomic float64 // the non-atomic ablation
	Sync           float64 // synchronous RGS reference (thread-independent)
}

// Fig2Center reproduces Figure 2 (center): the relative residual after 10
// sweeps for AsyRGS, the non-atomic AsyRGS variant, and synchronous RGS,
// with the direction sequence fixed across thread counts (Random123
// methodology). The paper's shape: the asynchronous residuals sit slightly
// above the synchronous one but within the same order of magnitude, with
// no consistent advantage for atomic writes.
func (r *Runner) Fig2Center() []Fig2CenterRow {
	r.Prepare()
	a := r.Gram
	sweeps := r.Cfg.Sweeps

	// Synchronous reference, computed once.
	syncSolver, err := core.New(a, core.Options{Seed: r.Cfg.Seed})
	if err != nil {
		panic(err)
	}
	xs := vec.NewDense(a.Rows, r.B.Cols)
	syncSolver.SweepsDense(xs, r.B, sweeps)
	syncRes := syncSolver.ResidualDense(xs, r.B)

	rows := make([]Fig2CenterRow, 0, len(r.Cfg.Threads))
	r.printf("\n== Figure 2 (center): relative residual after %d sweeps ==\n", sweeps)
	r.printf("%-8s %-14s %-14s %-14s\n", "threads", "AsyRGS", "non-atomic", "sync RGS")
	for _, th := range r.Cfg.Threads {
		if th < 2 {
			rows = append(rows, Fig2CenterRow{Threads: th, Async: syncRes, AsyncNonAtomic: syncRes, Sync: syncRes})
			r.printf("%-8d %-14.6e %-14.6e %-14.6e\n", th, syncRes, syncRes, syncRes)
			continue
		}
		row := Fig2CenterRow{Threads: th, Sync: syncRes}
		for _, nonAtomic := range []bool{false, true} {
			solver, err := core.New(a, core.Options{Workers: th, Seed: r.Cfg.Seed, NonAtomic: nonAtomic})
			if err != nil {
				panic(err)
			}
			x := vec.NewDense(a.Rows, r.B.Cols)
			solver.AsyncSweepsDense(x, r.B, sweeps)
			res := solver.ResidualDense(x, r.B)
			if nonAtomic {
				row.AsyncNonAtomic = res
			} else {
				row.Async = res
			}
		}
		rows = append(rows, row)
		r.printf("%-8d %-14.6e %-14.6e %-14.6e\n", th, row.Async, row.AsyncNonAtomic, row.Sync)
	}
	return rows
}

// Fig2RightRow is one row of the Figure 2 (right) A-norm sweep.
type Fig2RightRow struct {
	Threads        int
	Async          float64
	AsyncNonAtomic float64
	Sync           float64
}

// Fig2Right reproduces Figure 2 (right): the relative A-norm error
// ‖x−x*‖_A/‖x*‖_A after 10 sweeps on a single right-hand side constructed
// from a known solution (b = A·x*), for AsyRGS, non-atomic AsyRGS, and
// synchronous RGS. The paper's shape: asynchronous errors track the
// synchronous one closely and are sometimes better.
func (r *Runner) Fig2Right() []Fig2RightRow {
	r.Prepare()
	a := r.Gram
	sweeps := r.Cfg.Sweeps
	normX := a.ANorm(r.xStar)

	syncSolver, err := core.New(a, core.Options{Seed: r.Cfg.Seed})
	if err != nil {
		panic(err)
	}
	xs := make([]float64, a.Rows)
	syncSolver.Sweeps(xs, r.bStar, sweeps)
	syncErr := a.ANormErr(xs, r.xStar) / normX

	rows := make([]Fig2RightRow, 0, len(r.Cfg.Threads))
	r.printf("\n== Figure 2 (right): relative A-norm of error after %d sweeps ==\n", sweeps)
	r.printf("%-8s %-14s %-14s %-14s\n", "threads", "AsyRGS", "non-atomic", "sync RGS")
	for _, th := range r.Cfg.Threads {
		if th < 2 {
			rows = append(rows, Fig2RightRow{Threads: th, Async: syncErr, AsyncNonAtomic: syncErr, Sync: syncErr})
			r.printf("%-8d %-14.6e %-14.6e %-14.6e\n", th, syncErr, syncErr, syncErr)
			continue
		}
		row := Fig2RightRow{Threads: th, Sync: syncErr}
		for _, nonAtomic := range []bool{false, true} {
			solver, err := core.New(a, core.Options{Workers: th, Seed: r.Cfg.Seed, NonAtomic: nonAtomic})
			if err != nil {
				panic(err)
			}
			x := make([]float64, a.Rows)
			solver.AsyncSweeps(x, r.bStar, sweeps)
			e := a.ANormErr(x, r.xStar) / normX
			if nonAtomic {
				row.AsyncNonAtomic = e
			} else {
				row.Async = e
			}
		}
		rows = append(rows, row)
		r.printf("%-8d %-14.6e %-14.6e %-14.6e\n", th, row.Async, row.AsyncNonAtomic, row.Sync)
	}
	return rows
}

package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
)

// MethodRow is one row of the cross-method comparison table.
type MethodRow struct {
	Method    string
	Time      time.Duration
	Sweeps    int
	Residual  float64
	Converged bool
	ANormErr  float64
	Tau       int
}

// MethodTable solves the social-media system with every registered SPD
// method at a common tolerance and budget — the registry-driven scenario
// sweep: a newly registered solver shows up here (and in the conformance
// suite) without touching any driver code.
func (r *Runner) MethodTable(tol float64, maxSweeps, workers int) []MethodRow {
	r.Prepare()
	if tol <= 0 {
		tol = 1e-6
	}
	if maxSweeps <= 0 {
		maxSweeps = 500
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ms := method.ByKind(method.SPD)
	rows := make([]MethodRow, 0, len(ms))
	r.printf("\n== Method table: every registered SPD method (tol=%.0e, budget %d sweeps, %d workers) ==\n", tol, maxSweeps, workers)
	r.printf("%-20s %-12s %-8s %-14s %-10s %-14s %-6s\n", "method", "time", "sweeps", "rel residual", "converged", "A-norm err", "tau")
	for _, m := range ms {
		opts := method.Opts{
			Tol: tol, MaxSweeps: maxSweeps, CheckEvery: 5,
			Workers: workers, Seed: r.Cfg.Seed, XStar: r.xStar,
			MeasureDelay: true,
		}
		res := runRegistry(m.Name(), r.Gram, r.bStar, opts)
		row := MethodRow{
			Method: res.Method, Time: res.Wall, Sweeps: res.Sweeps,
			Residual: res.Residual, Converged: res.Converged,
			ANormErr: res.ANormErr, Tau: res.ObservedTau,
		}
		rows = append(rows, row)
		anorm := "n/a"
		if !math.IsNaN(row.ANormErr) {
			anorm = fmt.Sprintf("%.6e", row.ANormErr)
		}
		r.printf("%-20s %-12v %-8d %-14.6e %-10v %-14s %-6d\n",
			row.Method, row.Time.Round(time.Microsecond), row.Sweeps, row.Residual, row.Converged, anorm, row.Tau)
	}
	return rows
}

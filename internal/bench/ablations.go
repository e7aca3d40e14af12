package bench

import (
	"context"
	"errors"
	"runtime"
	"time"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/stats"
)

// runRegistry dispatches one fixed-work run (Tol <= 0 runs the exact
// sweep budget) through the method registry's Prepare/Solve pipeline —
// the single entry point all ablation tables share instead of per-method
// construction code.
func runRegistry(name string, a *sparse.CSR, b []float64, opts method.Opts) method.Result {
	ps := prepareRegistry(name, a, opts)
	x := make([]float64, a.Cols)
	res, err := ps.Solve(context.Background(), b, x, opts)
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		panic(err)
	}
	return res
}

// prepareRegistry captures the per-matrix state for one registry method,
// panicking on misconfiguration (bench workloads are internally built).
func prepareRegistry(name string, a *sparse.CSR, opts method.Opts) method.PreparedSystem {
	m, err := method.Get(name)
	if err != nil {
		panic(err)
	}
	ps, err := method.Prepare(context.Background(), m, a, opts)
	if err != nil {
		panic(err)
	}
	return ps
}

// DelayRow is one row of the delay-distribution report.
type DelayRow struct {
	Threads      int
	ObservedTau  int     // worst case (the τ the theorems use)
	FractionZero float64 // fraction of perfectly fresh reads
	P99Bound     uint64  // upper bound on the 99th-percentile delay
	MeanBound    float64 // upper bound on the mean delay
}

// DelayDistribution measures the delay distribution of real asynchronous
// executions across thread counts — the experiment the paper's conclusion
// calls for: the worst-case τ is orders of magnitude above the typical
// delay, which is why the (τ-based) bounds are pessimistic while practice
// is close to synchronous.
func (r *Runner) DelayDistribution(sweeps int) []DelayRow {
	r.Prepare()
	if sweeps <= 0 {
		sweeps = r.Cfg.Sweeps
	}
	rows := make([]DelayRow, 0, len(r.Cfg.Threads))
	r.printf("\n== Delay distribution of real asynchronous executions (%d sweeps) ==\n", sweeps)
	r.printf("%-8s %-10s %-10s %-10s %-10s\n", "threads", "tau-hat", "frac-0", "p99<=", "mean<=")
	for _, th := range r.Cfg.Threads {
		if th < 2 {
			continue
		}
		solver, err := core.New(r.Gram, core.Options{Workers: th, Seed: r.Cfg.Seed, MeasureDelay: true})
		if err != nil {
			panic(err)
		}
		x := make([]float64, r.Gram.Rows)
		solver.AsyncSweeps(x, r.bStar, sweeps)
		h := stats.Pow2Histogram{Counts: solver.DelayHistogram()}
		row := DelayRow{
			Threads:      th,
			ObservedTau:  solver.ObservedTau(),
			FractionZero: h.FractionZero(),
			P99Bound:     h.QuantileUpperBound(0.99),
			MeanBound:    h.MeanUpperBound(),
		}
		rows = append(rows, row)
		r.printf("%-8d %-10d %-10.3f %-10d %-10.1f\n", th, row.ObservedTau, row.FractionZero, row.P99Bound, row.MeanBound)
	}
	return rows
}

// SamplingRow is one row of the sampling-strategy ablation.
type SamplingRow struct {
	Strategy string
	Time     time.Duration
	Residual float64
}

// SamplingAblation compares the three direction distributions after a
// fixed sweep budget on the social-media matrix: uniform (the paper's
// algorithm), diagonal-weighted (general Leventhal–Lewis), and
// block-partitioned (the restricted randomization the paper proposes for
// distributed memory — single writer per coordinate, better locality, but
// coupled blocks converge more slowly). Each strategy is one registry
// entry; the table is pure data.
func (r *Runner) SamplingAblation(workers, sweeps int) []SamplingRow {
	r.Prepare()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if sweeps <= 0 {
		sweeps = r.Cfg.Sweeps
	}
	strategies := []string{"asyrgs", "asyrgs-weighted", "asyrgs-partitioned"}
	rows := make([]SamplingRow, 0, len(strategies))
	r.printf("\n== Sampling ablation (%d workers, %d sweeps) ==\n", workers, sweeps)
	r.printf("%-20s %-12s %-14s\n", "strategy", "time", "rel residual")
	for _, name := range strategies {
		res := runRegistry(name, r.Gram, r.b1, method.Opts{
			MaxSweeps: sweeps, CheckEvery: sweeps,
			Workers: workers, Seed: r.Cfg.Seed,
		})
		rows = append(rows, SamplingRow{Strategy: name, Time: res.Wall, Residual: res.Residual})
		r.printf("%-20s %-12v %-14.6e\n", name, res.Wall.Round(time.Microsecond), res.Residual)
	}
	return rows
}

// FaultRow is one row of the fault-injection experiment.
type FaultRow struct {
	Scenario string
	Residual float64
	Tau      int
}

// FaultInjection measures the robustness claim of the paper's §2
// discussion of Hook–Dingle: a deterministic asynchronous method can be
// crippled by one slow processor repeatedly serving stale updates for the
// same coordinates, while randomization spreads the staleness uniformly.
// We run AsyRGS with a healthy worker pool, with one slow worker, and with
// half the pool slow, and report the residual after a fixed budget.
func (r *Runner) FaultInjection(workers, sweeps int) []FaultRow {
	r.Prepare()
	if workers <= 0 {
		workers = 8
	}
	if sweeps <= 0 {
		sweeps = r.Cfg.Sweeps
	}
	scenarios := []struct {
		name     string
		throttle func(worker int, j uint64)
	}{
		{"healthy", nil},
		{"one-slow", func(w int, j uint64) {
			if w == 0 && j%4 == 0 {
				spin(2000)
			}
		}},
		{"half-slow", func(w int, j uint64) {
			if w%2 == 0 && j%4 == 0 {
				spin(2000)
			}
		}},
	}
	rows := make([]FaultRow, 0, len(scenarios))
	r.printf("\n== Fault injection: slow workers under randomized directions (%d workers, %d sweeps) ==\n", workers, sweeps)
	r.printf("%-12s %-14s %-10s\n", "scenario", "rel residual", "tau-hat")
	for _, sc := range scenarios {
		res := runRegistry("asyrgs", r.Gram, r.b1, method.Opts{
			MaxSweeps: sweeps, CheckEvery: sweeps,
			Workers: workers, Seed: r.Cfg.Seed, Throttle: sc.throttle,
			MeasureDelay: true,
		})
		rows = append(rows, FaultRow{Scenario: sc.name, Residual: res.Residual, Tau: res.ObservedTau})
		r.printf("%-12s %-14.6e %-10d\n", sc.name, rows[len(rows)-1].Residual, rows[len(rows)-1].Tau)
	}
	return rows
}

// spin burns roughly the given number of loop iterations without
// sleeping, so the injected slowness does not release the OS thread (a
// sleep would let the scheduler hide the fault).
func spin(iters int) {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	if x < 0 {
		panic("unreachable")
	}
}

// DistRow is one row of the sharded distributed-memory experiment: one
// (worker count, queue capacity) deployment shape at fixed work.
type DistRow struct {
	Workers  int
	QueueCap int
	Sweeps   int
	Residual float64
	Messages uint64
	MaxQueue int
	TimeMS   float64
}

// DistMem sweeps the sharded backend (asyrgs-distmem, dispatched through
// the registry) over worker counts and communication-buffer capacities —
// the knobs that physically realise the delay bound τ in a distributed
// deployment, the paper's "extend to massively parallel systems" future
// work made measurable. Residual, message traffic, worst inbox backlog
// and wall time come from the registry's normalized Result.
func (r *Runner) DistMem(workers []int, sweeps int, caps []int) []DistRow {
	r.Prepare()
	if len(workers) == 0 {
		workers = []int{2, 4, 8}
	}
	if sweeps <= 0 {
		sweeps = r.Cfg.Sweeps
	}
	if len(caps) == 0 {
		caps = []int{1, 4, 16, 64}
	}
	rows := make([]DistRow, 0, len(workers)*len(caps))
	r.printf("\n== Sharded distributed-memory backend (asyrgs-distmem, %d sweeps) ==\n", sweeps)
	r.printf("%-8s %-10s %-14s %-12s %-10s %-10s\n", "ranks", "queue-cap", "rel residual", "messages", "max-queue", "time")
	for _, w := range workers {
		for _, c := range caps {
			res := runRegistry("asyrgs-distmem", r.Gram, r.b1, method.Opts{
				MaxSweeps: sweeps, CheckEvery: sweeps,
				Workers: w, QueueCap: c, Seed: r.Cfg.Seed,
			})
			rows = append(rows, DistRow{
				Workers: w, QueueCap: c, Sweeps: res.Sweeps,
				Residual: res.Residual, Messages: res.Messages,
				MaxQueue: res.MaxQueue, TimeMS: ms(res.Wall),
			})
			r.printf("%-8d %-10d %-14.6e %-12d %-10d %-10v\n",
				w, c, res.Residual, res.Messages, res.MaxQueue, res.Wall.Round(time.Microsecond))
		}
	}
	return rows
}

// ClassicRow compares classical asynchronous Jacobi against AsyRGS.
type ClassicRow struct {
	Method   string
	Scenario string
	Residual float64
}

// ClassicVsRandomized pits deterministic chaotic-relaxation Jacobi against
// AsyRGS at equal sweep budgets, healthy and with a starved block/worker —
// the §2 Hook–Dingle motivation for randomization, head to head. Both
// contenders dispatch through the registry; the scenario grid is data.
func (r *Runner) ClassicVsRandomized(workers, sweeps int) []ClassicRow {
	r.Prepare()
	if workers <= 0 {
		workers = 8
	}
	if sweeps <= 0 {
		sweeps = r.Cfg.Sweeps
	}
	slow := func(w int, _ uint64) {
		if w == 0 {
			spin(400)
		}
	}
	scenarios := []struct {
		name     string
		throttle func(worker int, iteration uint64)
	}{
		{"healthy", nil},
		{"one-slow", slow},
	}
	var rows []ClassicRow
	r.printf("\n== Classic async Jacobi vs AsyRGS (%d workers, %d sweeps) ==\n", workers, sweeps)
	r.printf("%-12s %-12s %-14s\n", "method", "scenario", "rel residual")
	for _, sc := range scenarios {
		for _, name := range []string{"asyncjacobi", "asyrgs"} {
			res := runRegistry(name, r.Gram, r.b1, method.Opts{
				MaxSweeps: sweeps, CheckEvery: sweeps,
				Workers: workers, Seed: r.Cfg.Seed, Throttle: sc.throttle,
			})
			rows = append(rows, ClassicRow{Method: name, Scenario: sc.name, Residual: res.Residual})
			r.printf("%-12s %-12s %-14.6e\n", name, sc.name, res.Residual)
		}
	}
	return rows
}

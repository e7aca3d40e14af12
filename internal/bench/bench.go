// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation section (§9), plus validation experiments for
// the analytical results (Theorems 2–5). Each runner prints the same rows
// or series the paper reports, on the synthetic workload, and returns
// the measurements so tests and benchmarks can assert on the qualitative
// shape (who wins, how it scales). The -exp flag of cmd/asybench lists
// the runners.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// Config sizes the experiment suite. The defaults reproduce the paper's
// experiments at laptop scale.
type Config struct {
	// Terms is the Gram dimension of the synthetic social-media matrix
	// (the paper's n = 120,147, scaled).
	Terms int
	// RHSCols is the number of right-hand sides solved together (the
	// paper's 51 label columns, scaled).
	RHSCols int
	// Threads is the list of worker counts to sweep (the paper's
	// 1,2,4,…,64 hardware threads).
	Threads []int
	// Sweeps is the sweep budget of the fixed-work experiments (paper: 10).
	Sweeps int
	// Repeats is the number of runs whose median is reported where the
	// paper uses medians (Table 1, Figure 3: 5 runs).
	Repeats int
	// Seed keys workload generation and solver streams.
	Seed uint64
	// Out receives the printed tables; nil discards them.
	Out io.Writer
}

// Default returns the configuration used by cmd/asybench and the
// benchmarks: small enough to regenerate every figure in minutes.
func Default() Config {
	return Config{
		Terms:   1500,
		RHSCols: 16,
		Threads: []int{1, 2, 4, 8, 16, 32, 64},
		Sweeps:  10,
		Repeats: 5,
		Seed:    42,
		Out:     nil,
	}
}

// Runner caches the generated workload across experiments.
type Runner struct {
	Cfg      Config
	Gram     *sparse.CSR // the synthetic social-media Gram matrix
	TermDoc  *sparse.CSR // its underlying term–document matrix
	B        *vec.Dense  // multi-RHS block
	b1       []float64   // single RHS
	bStar    []float64   // RHS with known solution (b = A·x*)
	xStar    []float64
	prepared bool
}

// NewRunner builds a runner; the workload is generated lazily.
func NewRunner(cfg Config) *Runner {
	if cfg.Terms == 0 {
		cfg = Default()
	}
	return &Runner{Cfg: cfg}
}

// Prepare generates the workload once.
func (r *Runner) Prepare() {
	if r.prepared {
		return
	}
	opts := workload.DefaultSocialGram(r.Cfg.Terms, r.Cfg.Seed)
	r.Gram, r.TermDoc = workload.SocialGram(opts)
	r.B = workload.MultiRHS(r.Gram.Rows, r.Cfg.RHSCols, r.Cfg.Seed+1)
	r.b1 = workload.RandomRHS(r.Gram.Rows, r.Cfg.Seed+2)
	r.bStar, r.xStar = workload.RHSForSolution(r.Gram, r.Cfg.Seed+3)
	r.prepared = true
	r.printf("workload: %s\n", workload.Describe("social-gram", r.Gram))
}

func (r *Runner) printf(format string, args ...any) {
	if r.Cfg.Out != nil {
		fmt.Fprintf(r.Cfg.Out, format, args...)
	}
}

// timeIt returns the wall-clock duration of f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of ds (ds is sorted in place).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// medianInt returns the median of xs (sorted in place).
func medianInt(xs []int) int {
	sort.Ints(xs)
	return xs[len(xs)/2]
}

// medianFloat returns the median of xs (sorted in place).
func medianFloat(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// clampWorkers reminds readers that thread counts beyond the physical core
// count still exercise asynchrony (delays grow with P) but cannot add
// wall-clock speedup; the tables annotate such rows.
func clampWorkers(w int) (workers int, oversubscribed bool) {
	max := runtime.GOMAXPROCS(0)
	return w, w > max
}

// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per experiment (the -exp flag of cmd/asybench lists them). Timed
// sections measure exactly the work the paper times; quality metrics
// (residuals, A-norm errors, outer-iteration counts) are attached with
// b.ReportMetric so `go test -bench` output carries the same columns the
// paper reports. The full suite, including the paper-scale text tables,
// can be regenerated with cmd/asybench.
package asyrgs_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	asyrgs "github.com/asynclinalg/asyrgs"
	"github.com/asynclinalg/asyrgs/internal/bench"
	"github.com/asynclinalg/asyrgs/internal/sim"
	"github.com/asynclinalg/asyrgs/internal/theory"
)

// benchWorkload caches the social-media Gram matrix across benchmarks.
var benchWorkload struct {
	once  sync.Once
	a     *asyrgs.Matrix
	b     *asyrgs.Dense
	b1    []float64
	bStar []float64
	xStar []float64
}

func workloadFor(b *testing.B) (*asyrgs.Matrix, *asyrgs.Dense, []float64) {
	b.Helper()
	benchWorkload.once.Do(func() {
		benchWorkload.a, _ = asyrgs.SocialGram(asyrgs.DefaultSocialGram(800, 42))
		benchWorkload.b = asyrgs.MultiRHS(800, 8, 43)
		benchWorkload.b1 = asyrgs.RandomRHS(800, 44)
		benchWorkload.bStar, benchWorkload.xStar = asyrgs.RHSForSolution(benchWorkload.a, 45)
	})
	return benchWorkload.a, benchWorkload.b, benchWorkload.b1
}

// BenchmarkFig1RGSvsCG regenerates Figure 1's two series: the per-sweep
// cost of Randomized Gauss–Seidel vs the per-iteration cost of CG on the
// multi-RHS system (the figure's x-axis unit), with the residual after a
// fixed 10-unit budget attached as a metric.
func BenchmarkFig1RGSvsCG(b *testing.B) {
	a, rhs, _ := workloadFor(b)
	b.Run("RGS-sweep", func(b *testing.B) {
		s, err := asyrgs.NewSolver(a, asyrgs.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		x := asyrgs.NewDense(a.Rows, rhs.Cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SweepsDense(x, rhs, 1)
		}
		b.StopTimer()
		b.ReportMetric(s.ResidualDense(x, rhs), "rel-residual")
	})
	b.Run("CG-iteration", func(b *testing.B) {
		x := asyrgs.NewDense(a.Rows, rhs.Cols)
		var hist []float64
		b.ResetTimer()
		asyrgs.CGDense(a, x, rhs, b.N, 1, &hist)
		b.StopTimer()
		b.ReportMetric(hist[len(hist)-1], "rel-residual")
	})
}

// BenchmarkFig2LeftAsyRGS regenerates Figure 2 (left), AsyRGS curve: the
// cost of one asynchronous sweep at each worker count.
func BenchmarkFig2LeftAsyRGS(b *testing.B) {
	a, rhs, _ := workloadFor(b)
	for _, th := range []int{1, 2, 4, 8, 16} {
		b.Run(threadName(th), func(b *testing.B) {
			s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: th, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			x := asyrgs.NewDense(a.Rows, rhs.Cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AsyncSweepsDense(x, rhs, 1)
			}
		})
	}
}

// BenchmarkFig2LeftCG regenerates Figure 2 (left), CG curve: one CG
// iteration (contiguous-block SpMM) at each worker count.
func BenchmarkFig2LeftCG(b *testing.B) {
	a, rhs, _ := workloadFor(b)
	for _, th := range []int{1, 2, 4, 8, 16} {
		b.Run(threadName(th), func(b *testing.B) {
			x := asyrgs.NewDense(a.Rows, rhs.Cols)
			b.ResetTimer()
			asyrgs.CGDense(a, x, rhs, b.N, th, nil)
		})
	}
}

// BenchmarkFig2Center regenerates Figure 2 (center): the residual after 10
// sweeps for atomic and non-atomic AsyRGS, reported as metrics alongside
// the run time.
func BenchmarkFig2Center(b *testing.B) {
	a, rhs, _ := workloadFor(b)
	for _, variant := range []struct {
		name      string
		nonAtomic bool
	}{{"atomic", false}, {"non-atomic", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var res float64
			for i := 0; i < b.N; i++ {
				s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: runtime.GOMAXPROCS(0), Seed: 3, NonAtomic: variant.nonAtomic})
				if err != nil {
					b.Fatal(err)
				}
				x := asyrgs.NewDense(a.Rows, rhs.Cols)
				s.AsyncSweepsDense(x, rhs, 10)
				res = s.ResidualDense(x, rhs)
			}
			b.ReportMetric(res, "rel-residual-10-sweeps")
		})
	}
}

// BenchmarkFig2Right regenerates Figure 2 (right): the relative A-norm
// error after 10 sweeps on a known-solution system.
func BenchmarkFig2Right(b *testing.B) {
	a, _, _ := workloadFor(b)
	bStar, xStar := benchWorkload.bStar, benchWorkload.xStar
	normX := a.ANorm(xStar)
	var errA float64
	for i := 0; i < b.N; i++ {
		s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: runtime.GOMAXPROCS(0), Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, a.Rows)
		s.AsyncSweeps(x, bStar, 10)
		errA = a.ANormErr(x, xStar) / normX
	}
	b.ReportMetric(errA, "rel-Anorm-err-10-sweeps")
}

// BenchmarkTable1FCG regenerates Table 1: Flexible-CG preconditioned by
// AsyRGS at each inner-sweep count, timing the full solve to 1e-8 and
// reporting outer iterations and mat-ops as metrics.
func BenchmarkTable1FCG(b *testing.B) {
	a, _, b1 := workloadFor(b)
	fcg := prepareFor(b, "fcg", a)
	for _, inner := range []int{30, 20, 10, 5, 3, 2, 1} {
		b.Run(innerName(inner), func(b *testing.B) {
			var outer int
			for i := 0; i < b.N; i++ {
				x := make([]float64, a.Rows)
				res, _ := fcg.Solve(context.Background(), b1, x, asyrgs.MethodOpts{
					Tol: 1e-8, MaxSweeps: 4000, Workers: runtime.GOMAXPROCS(0), Seed: 5, Inner: inner,
				})
				outer = res.Sweeps
			}
			b.ReportMetric(float64(outer), "outer-iters")
			b.ReportMetric(float64(outer*(inner+1)), "mat-ops")
		})
	}
}

// BenchmarkFig3Left regenerates Figure 3 (left): FCG+AsyRGS solve time to
// 1e-8 at each thread count for 2 and 10 inner sweeps.
func BenchmarkFig3Left(b *testing.B) {
	a, _, b1 := workloadFor(b)
	fcg := prepareFor(b, "fcg", a)
	for _, inner := range []int{2, 10} {
		for _, th := range []int{1, 2, 4, 8} {
			b.Run(innerName(inner)+"/"+threadName(th), func(b *testing.B) {
				var outer int
				for i := 0; i < b.N; i++ {
					x := make([]float64, a.Rows)
					res, _ := fcg.Solve(context.Background(), b1, x, asyrgs.MethodOpts{
						Tol: 1e-8, MaxSweeps: 4000, Workers: th, Seed: 6, Inner: inner,
					})
					outer = res.Sweeps
				}
				// Figure 3 (right): the outer-iteration count per thread.
				b.ReportMetric(float64(outer), "outer-iters")
			})
		}
	}
}

// BenchmarkTheoryBounds regenerates the analytical validation: a
// simulator-enforced consistent-read run with worst-case delay, reporting
// the measured error reduction and the Theorem 3 bound side by side.
func BenchmarkTheoryBounds(b *testing.B) {
	lap := asyrgs.Laplacian2D(16, 16)
	a, _, err := asyrgs.UnitDiagonalScale(lap)
	if err != nil {
		b.Fatal(err)
	}
	est := asyrgs.EstimateSpectrum(a, 100, 7)
	tau := 8
	beta := asyrgs.OptimalBeta(asyrgs.Rho(a), tau)
	p := asyrgs.NewBoundParams(a, est.LambdaMin, est.LambdaMax, tau, beta)
	m := 40 * a.Rows
	rhs, xstar := asyrgs.RHSForSolution(a, 8)
	var measured float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := sim.RunConsistent(a, rhs, make([]float64, a.Rows), xstar, m, sim.FixedDelay{T: tau}, sim.Config{Seed: uint64(9 + i), Beta: beta, Stride: m})
		measured = tr.Errors[len(tr.Errors)-1] / tr.Errors[0]
	}
	b.StopTimer()
	b.ReportMetric(measured, "measured-Em/E0")
	b.ReportMetric(p.ConsistentBound(m), "theorem3-bound")
}

// BenchmarkLSQAsync regenerates the §8 validation: asynchronous randomized
// coordinate descent on an overdetermined system, one sweep per op.
func BenchmarkLSQAsync(b *testing.B) {
	a := asyrgs.RandomOverdetermined(4000, 1000, 6, 10)
	rhs := asyrgs.RandomRHS(4000, 11)
	for _, th := range []int{1, 4} {
		b.Run(threadName(th), func(b *testing.B) {
			beta := 1.0
			if th > 1 {
				beta = 0.9
			}
			s, err := asyrgs.NewLSQ(a, asyrgs.LSQOptions{Workers: th, Seed: 12, Beta: beta})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Iterations(x, rhs, 1000)
			}
		})
	}
}

// BenchmarkBetaAblation compares unit step size against the bound-optimal
// β̃ under enforced worst-case delay (Theorem 3's design choice).
func BenchmarkBetaAblation(b *testing.B) {
	lap := asyrgs.Laplacian2D(12, 12)
	a, _, err := asyrgs.UnitDiagonalScale(lap)
	if err != nil {
		b.Fatal(err)
	}
	tau := 12
	rhs, xstar := asyrgs.RHSForSolution(a, 14)
	m := 30 * a.Rows
	for _, cfg := range []struct {
		name string
		beta float64
	}{{"beta-1", 1.0}, {"beta-optimal", asyrgs.OptimalBeta(asyrgs.Rho(a), tau)}} {
		b.Run(cfg.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				tr := sim.RunConsistent(a, rhs, make([]float64, a.Rows), xstar, m, sim.FixedDelay{T: tau}, sim.Config{Seed: uint64(15 + i), Beta: cfg.beta, Stride: m})
				ratio = tr.Errors[len(tr.Errors)-1] / tr.Errors[0]
			}
			b.ReportMetric(ratio, "Em/E0")
		})
	}
}

// BenchmarkHarnessSmoke runs the text-table harness end to end at tiny
// scale, guarding the cmd/asybench path.
func BenchmarkHarnessSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.Default()
		cfg.Terms = 150
		cfg.RHSCols = 2
		cfg.Threads = []int{1, 2}
		cfg.Sweeps = 3
		cfg.Repeats = 1
		r := bench.NewRunner(cfg)
		r.Fig1(10)
	}
}

// BenchmarkRhoComputation measures the theory parameter extraction that
// OptimalBeta depends on.
func BenchmarkRhoComputation(b *testing.B) {
	a, _, _ := workloadFor(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += theory.Rho(a) + theory.Rho2(a)
	}
	_ = acc
}

// prepareFor prepares a registry method on a once, outside the timed loop.
func prepareFor(b *testing.B, name string, a *asyrgs.Matrix) asyrgs.PreparedSystem {
	b.Helper()
	m, err := asyrgs.GetMethod(name)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := asyrgs.PrepareMethod(context.Background(), m, a, asyrgs.MethodOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return ps
}

func threadName(th int) string {
	switch th {
	case 1:
		return "threads-1"
	case 2:
		return "threads-2"
	case 4:
		return "threads-4"
	case 8:
		return "threads-8"
	case 16:
		return "threads-16"
	}
	return "threads-n"
}

func innerName(inner int) string {
	names := map[int]string{1: "inner-1", 2: "inner-2", 3: "inner-3", 5: "inner-5", 10: "inner-10", 20: "inner-20", 30: "inner-30"}
	return names[inner]
}

// BenchmarkDistMem regenerates the distributed-memory emulation experiment:
// one fixed-budget solve of 10 sweeps in one round per queue capacity,
// with residual and backlog as metrics.
func BenchmarkDistMem(b *testing.B) {
	a, _, b1 := workloadFor(b)
	m, err := asyrgs.GetMethod("asyrgs-distmem")
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{1, 16} {
		name := "queue-1"
		if cap == 16 {
			name = "queue-16"
		}
		b.Run(name, func(b *testing.B) {
			var res asyrgs.MethodResult
			for i := 0; i < b.N; i++ {
				x := make([]float64, a.Rows)
				var err error
				res, err = m.Solve(context.Background(), a, b1, x, asyrgs.MethodOpts{
					MaxSweeps: 10, CheckEvery: 10, Workers: 8, QueueCap: cap, Seed: 9,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Residual, "rel-residual")
			b.ReportMetric(float64(res.MaxQueue), "max-backlog")
		})
	}
}

// BenchmarkClassicVsRandomized times one fixed budget of classical
// asynchronous Jacobi against AsyRGS at equal sweeps (the §2 comparison).
func BenchmarkClassicVsRandomized(b *testing.B) {
	a, _, b1 := workloadFor(b)
	b.Run("async-jacobi", func(b *testing.B) {
		aj := prepareFor(b, "asyncjacobi", a)
		var res asyrgs.MethodResult
		for i := 0; i < b.N; i++ {
			x := make([]float64, a.Rows)
			var err error
			if res, err = aj.Solve(context.Background(), b1, x, asyrgs.MethodOpts{MaxSweeps: 10, Workers: 8}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Residual, "rel-residual")
	})
	b.Run("asyrgs", func(b *testing.B) {
		var res float64
		for i := 0; i < b.N; i++ {
			s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: 8, Seed: 10})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, a.Rows)
			s.AsyncSweeps(x, b1, 10)
			res = s.Residual(x, b1)
		}
		b.ReportMetric(res, "rel-residual")
	})
}

// BenchmarkSolveWithGuarantee times the theory-driven scheduler end to end
// (certificate computation + barrier-separated asynchronous epochs).
func BenchmarkSolveWithGuarantee(b *testing.B) {
	lap := asyrgs.Laplacian2D(20, 20)
	a, _, err := asyrgs.UnitDiagonalScale(lap)
	if err != nil {
		b.Fatal(err)
	}
	rhs := asyrgs.RandomRHS(a.Rows, 11)
	var g asyrgs.Guarantee
	for i := 0; i < b.N; i++ {
		s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: 4, Seed: 12})
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, a.Rows)
		g, err = s.SolveWithGuarantee(x, rhs, 0.1, 0.1, 4, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Epochs), "epochs")
}

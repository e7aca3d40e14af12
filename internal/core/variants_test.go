package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// --- diagonal-weighted sampling ---

// aliasSampler builds the diagonal-weighted alias sampler for a
// diagonal, failing the test on invalid input.
func aliasSampler(t *testing.T, diag []float64) sampler {
	t.Helper()
	tab, err := alias.New(diag)
	if err != nil {
		t.Fatal(err)
	}
	return sampler{kind: samplerWeightedAlias, tab: tab}
}

func TestWeightedSamplerDistribution(t *testing.T) {
	// Diagonal (1, 3): coordinate 1 must be drawn ≈ 3× as often.
	smp := aliasSampler(t, []float64{1, 3})
	stream := rng.NewStream(1)
	counts := [2]int{}
	const draws = 100_000
	for j := uint64(0); j < draws; j++ {
		counts[smp.pick(stream, j, 0)]++
	}
	frac := float64(counts[1]) / draws
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("coordinate 1 drawn %.3f of the time, want ≈ 0.75", frac)
	}
}

func TestWeightedSamplerUnitDiagonalIsUniform(t *testing.T) {
	smp := aliasSampler(t, []float64{1, 1, 1, 1})
	stream := rng.NewStream(2)
	counts := [4]int{}
	const draws = 80_000
	for j := uint64(0); j < draws; j++ {
		counts[smp.pick(stream, j, 0)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/draws-0.25) > 0.01 {
			t.Fatalf("bucket %d has fraction %.3f, want ≈ 0.25", i, float64(c)/draws)
		}
	}
}

// TestAliasMatchesExactMarginals draws a large budget through the
// weighted alias sampler over a skewed diagonal and checks each
// empirical marginal against the exact A_rr/tr(A) within sampling noise.
func TestAliasMatchesExactMarginals(t *testing.T) {
	diag := []float64{4, 1, 0.5, 9, 2, 2, 6, 0.25}
	smp := aliasSampler(t, diag)
	var trace float64
	for _, d := range diag {
		trace += d
	}
	stream := rng.NewStream(77)
	const draws = 200_000
	var counts [8]float64
	for j := uint64(0); j < draws; j++ {
		counts[smp.pick(stream, j, 0)]++
	}
	for i, d := range diag {
		if got, want := counts[i]/draws, d/trace; math.Abs(got-want) > 6e-3 {
			t.Fatalf("coordinate %d: alias marginal %.4f vs exact %.4f", i, got, want)
		}
	}
}

func TestWeightValidation(t *testing.T) {
	for name, diag := range map[string][]float64{
		"empty":    {},
		"zero":     {1, 0, 2},
		"negative": {1, -3},
		"nan":      {1, math.NaN()},
	} {
		if err := validateWeights(diag); err == nil {
			t.Fatalf("%s diagonal must be rejected", name)
		}
	}
	if err := validateWeights([]float64{1, 2, 3}); err != nil {
		t.Fatalf("valid diagonal rejected: %v", err)
	}
}

func TestDiagonalWeightedSolverConverges(t *testing.T) {
	a := workload.RandomSPD(60, 5, 1.5, 40)
	b := workload.RandomRHS(60, 41)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(a, Options{Seed: 42, DiagonalWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 60)
	if res, err := s.Solve(x, b, 1e-9, 3000, 10); err != nil {
		t.Fatalf("weighted sampling did not converge: %+v", res)
	}
	if e := vec.RelErr(x, want); e > 1e-7 {
		t.Fatalf("weighted solution error %v", e)
	}
}

func TestDiagonalWeightedAsyncConverges(t *testing.T) {
	a := workload.RandomSPD(150, 5, 1.5, 43)
	b := workload.RandomRHS(150, 44)
	s, err := New(a, Options{Seed: 45, DiagonalWeighted: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 150)
	if res, err := s.SolveAsync(x, b, 1e-7, 1000, 10); err != nil {
		t.Fatalf("async weighted did not converge: %+v", res)
	}
}

func TestDiagonalWeightedRejectsNonPositiveDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1) // non-zero, so base validation passes
	if _, err := New(coo.ToCSR(), Options{DiagonalWeighted: true}); err == nil {
		t.Fatal("negative diagonal must be rejected for weighted sampling")
	}
}

// --- partitioned (block-restricted) sampling ---

func TestPartitionedSamplerStaysInBlock(t *testing.T) {
	smp := sampler{kind: samplerPartitioned, n: 100, workers: 4}
	stream := rng.NewStream(3)
	for w := 0; w < 4; w++ {
		lo, hi := w*25, (w+1)*25
		for j := uint64(0); j < 2000; j++ {
			r := smp.pick(stream, j, w)
			if r < lo || r >= hi {
				t.Fatalf("worker %d drew coordinate %d outside [%d,%d)", w, r, lo, hi)
			}
		}
	}
}

func TestPartitionedSamplerMoreWorkersThanRows(t *testing.T) {
	smp := sampler{kind: samplerPartitioned, n: 3, workers: 8}
	stream := rng.NewStream(4)
	for w := 0; w < 8; w++ {
		r := smp.pick(stream, uint64(w), w)
		if r < 0 || r >= 3 {
			t.Fatalf("worker %d drew out-of-range coordinate %d", w, r)
		}
	}
}

func TestPartitionedAsyncConverges(t *testing.T) {
	a := workload.RandomSPD(200, 5, 1.5, 46)
	b := workload.RandomRHS(200, 47)
	s, err := New(a, Options{Seed: 48, Workers: 4, Partitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	if res, err := s.SolveAsync(x, b, 1e-7, 1000, 10); err != nil {
		t.Fatalf("partitioned async did not converge: %+v", res)
	}
}

func TestPartitionedSingleWriterProperty(t *testing.T) {
	if race.Enabled {
		t.Skip("NonAtomic reads race by design even with single writers")
	}
	// With Partitioned + NonAtomic there is exactly one writer per
	// coordinate, so even the non-atomic variant is race-free on the
	// write side. Convergence must hold.
	a := workload.RandomSPD(200, 5, 1.5, 49)
	b := workload.RandomRHS(200, 50)
	s, err := New(a, Options{Seed: 51, Workers: 4, Partitioned: true, NonAtomic: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	if res, err := s.SolveAsync(x, b, 1e-6, 1000, 10); err != nil {
		t.Fatalf("partitioned non-atomic did not converge: %+v", res)
	}
}

func TestPartitionedIgnoredSynchronously(t *testing.T) {
	// The synchronous path must treat Partitioned as uniform (P = 1).
	a := workload.RandomSPD(30, 4, 1.5, 52)
	b := workload.RandomRHS(30, 53)
	s1, _ := New(a, Options{Seed: 54})
	s2, _ := New(a, Options{Seed: 54, Partitioned: true})
	x1 := make([]float64, 30)
	x2 := make([]float64, 30)
	s1.Sweeps(x1, b, 3)
	s2.Sweeps(x2, b, 3)
	if !vec.Equal(x1, x2, 0) {
		t.Fatal("Partitioned must not change the synchronous iteration")
	}
}

// --- fault injection ---

func TestThrottleIsInvoked(t *testing.T) {
	a := workload.RandomSPD(50, 4, 1.5, 55)
	b := workload.RandomRHS(50, 56)
	var calls atomic.Uint64
	s, err := New(a, Options{
		Seed: 57, Workers: 2,
		Throttle: func(worker int, j uint64) { calls.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	s.AsyncSweeps(x, b, 2)
	if got := calls.Load(); got != 100 {
		t.Fatalf("throttle called %d times, want 100 (2 sweeps × 50)", got)
	}
}

func TestSlowWorkerDoesNotPreventConvergence(t *testing.T) {
	// The Hook–Dingle failure mode: one processor is much slower than the
	// rest. With randomized directions no coordinate is starved, so the
	// solve must still converge to the same accuracy.
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs")
	}
	a := workload.RandomSPD(300, 6, 1.5, 58)
	b := workload.RandomRHS(300, 59)
	slow := func(worker int, j uint64) {
		if worker == 0 && j%8 == 0 {
			time.Sleep(50 * time.Microsecond) // worker 0 runs ~orders slower
		}
	}
	s, err := New(a, Options{Seed: 60, Workers: 4, Throttle: slow, MeasureDelay: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 300)
	res, err := s.SolveAsync(x, b, 1e-7, 800, 10)
	if err != nil {
		t.Fatalf("solve with a slow worker did not converge: %+v", res)
	}
}

func TestStalledWorkerDelaysButConverges(t *testing.T) {
	// Extreme injection: worker 0 stalls completely for the first part of
	// the run (it claims an index and sits on it). The other workers keep
	// the method converging.
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs")
	}
	a := workload.RandomSPD(200, 5, 1.5, 61)
	b := workload.RandomRHS(200, 62)
	var stallOnce atomic.Bool
	s, err := New(a, Options{
		Seed: 63, Workers: 4,
		Throttle: func(worker int, j uint64) {
			if worker == 0 && stallOnce.CompareAndSwap(false, true) {
				time.Sleep(20 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	if res, err := s.SolveAsync(x, b, 1e-6, 800, 10); err != nil {
		t.Fatalf("solve with a stalled worker did not converge: %+v", res)
	}
}

// --- delay histogram ---

func TestDelayHistogramCollected(t *testing.T) {
	a := workload.RandomSPD(400, 6, 1.5, 64)
	b := workload.RandomRHS(400, 65)
	s, err := New(a, Options{Seed: 66, Workers: runtime.GOMAXPROCS(0), MeasureDelay: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 400)
	s.AsyncSweeps(x, b, 10)
	hist := s.DelayHistogram()
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total != 10*400 {
		t.Fatalf("histogram counts %d iterations, want 4000", total)
	}
	s.Reset()
	for _, c := range s.DelayHistogram() {
		if c != 0 {
			t.Fatal("Reset must clear the histogram")
		}
	}
}

func TestDelayHistogramEmptyWithoutMeasure(t *testing.T) {
	a := workload.RandomSPD(50, 4, 1.5, 67)
	b := workload.RandomRHS(50, 68)
	s, _ := New(a, Options{Seed: 69, Workers: 2})
	x := make([]float64, 50)
	s.AsyncSweeps(x, b, 2)
	for _, c := range s.DelayHistogram() {
		if c != 0 {
			t.Fatal("histogram must stay empty when MeasureDelay is off")
		}
	}
}

// --- weighted vs uniform ablation sanity ---

func TestWeightedSamplingSkewedDiagonalRate(t *testing.T) {
	// The Leventhal–Lewis weighted distribution converges at rate
	// (1 − λmin(A)/tr(A)) per iteration. With a heavily skewed diagonal
	// the trace is huge, so weighted sampling is *slower* than uniform
	// sampling with diagonal normalisation (which sees the rescaled
	// spectrum) — but it must still make steady progress. Both facts are
	// asserted: monotone-ish decrease for weighted, and uniform being the
	// better choice here (why the library defaults to uniform).
	coo := sparse.NewCOO(40, 40)
	g := rng.NewSequential(70)
	for i := 0; i < 40; i++ {
		d := 1.0
		if i%8 == 0 {
			d = 100 // a few heavy diagonal entries
		}
		coo.Add(i, i, d)
		j := g.Intn(40)
		if j != i {
			coo.AddSym(i, j, 0.3*(g.Float64()-0.5))
		}
	}
	a := coo.ToCSR()
	b, xstar := workload.RHSForSolution(a, 71)
	e0 := a.ANormErr(make([]float64, 40), xstar)
	errAfter := func(weighted bool, sweeps int) float64 {
		s, err := New(a, Options{Seed: 72, DiagonalWeighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 40)
		s.Sweeps(x, b, sweeps)
		return a.ANormErr(x, xstar)
	}
	w40 := errAfter(true, 40)
	w400 := errAfter(true, 400)
	if w40 >= e0 {
		t.Fatalf("weighted sampling made no progress: %v vs initial %v", w40, e0)
	}
	if w400 >= w40 {
		t.Fatalf("weighted sampling stalled: %v after 400 sweeps vs %v after 40", w400, w40)
	}
	if u := errAfter(false, 40); u >= w40 {
		t.Fatalf("uniform sampling should win on a skewed diagonal: uniform %v vs weighted %v", u, w40)
	}
}

// --- theory-driven occasional synchronization ---

func TestSolveWithGuaranteeAchievesReduction(t *testing.T) {
	// Reference-scenario matrix with small ρ·n: the certificate applies
	// and the actual error must respect it (the bound is pessimistic, so
	// the achieved error is typically far better).
	lap := workload.Laplacian2D(16, 16)
	a, _, err := sparse.UnitDiagonalScale(lap)
	if err != nil {
		t.Fatal(err)
	}
	b, xstar := workload.RHSForSolution(a, 80)
	s, err := New(a, Options{Seed: 81, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	e0 := a.ANormErr(x, xstar)
	const eps = 0.05
	g, err := s.SolveWithGuarantee(x, b, eps, 0.1, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epochs < 1 || g.EpochFactor <= 0 || g.EpochFactor >= 1 {
		t.Fatalf("bad guarantee %+v", g)
	}
	if g.ExpectedReduction > 0.1*eps*eps*1.0001 {
		t.Fatalf("certificate does not reach δ·ε²: %+v", g)
	}
	if e := a.ANormErr(x, xstar); e > eps*e0 {
		t.Fatalf("achieved error %v above the certified eps·e0 = %v", e, eps*e0)
	}
}

func TestSolveWithGuaranteeVacuousBound(t *testing.T) {
	// Huge τ with β = 1 breaks 2ρτ < 1: the call must refuse rather than
	// run without a certificate.
	lap := workload.Laplacian2D(8, 8)
	a, _, err := sparse.UnitDiagonalScale(lap)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(a, Options{Seed: 82, Workers: 2})
	x := make([]float64, a.Rows)
	b := workload.RandomRHS(a.Rows, 83)
	if _, err := s.SolveWithGuarantee(x, b, 0.1, 0.1, 1_000_000, 0, 0); err == nil {
		t.Fatal("vacuous bound must be reported")
	}
}

func TestSolveWithGuaranteeValidatesInputs(t *testing.T) {
	a := workload.RandomSPD(20, 4, 1.5, 84)
	s, _ := New(a, Options{Seed: 85})
	x := make([]float64, 20)
	b := workload.RandomRHS(20, 86)
	for _, bad := range [][2]float64{{0, 0.5}, {1.5, 0.5}, {0.1, 0}, {0.1, 1}} {
		if _, err := s.SolveWithGuarantee(x, b, bad[0], bad[1], 2, 0, 0); err == nil {
			t.Fatalf("eps=%v delta=%v should be rejected", bad[0], bad[1])
		}
	}
}

func TestSolveWithGuaranteeGeneralDiagonal(t *testing.T) {
	// Non-unit-diagonal SPD matrix: the certificate is evaluated on the
	// implicit unit-diagonal scaling.
	a := workload.RandomSPD(100, 4, 2.0, 87)
	b, xstar := workload.RHSForSolution(a, 88)
	s, err := New(a, Options{Seed: 89, Workers: 2, Beta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	e0 := a.ANormErr(x, xstar)
	g, err := s.SolveWithGuarantee(x, b, 0.1, 0.2, 2, 0, 0)
	if err != nil {
		t.Skipf("bound vacuous on this draw (%v) — acceptable", err)
	}
	if e := a.ANormErr(x, xstar); e > 0.1*e0 {
		t.Fatalf("achieved %v above certified %v (guarantee %+v)", e, 0.1*e0, g)
	}
}

func TestPartitionedCoverageUnderSkewedScheduling(t *testing.T) {
	// Partitioned mode must give every block its share of the budget even
	// if one worker runs arbitrarily faster than the rest (per-worker
	// budgets, not a shared counter). Throttle all but worker 0 heavily
	// for the first phase; all blocks must still receive updates.
	a := workload.RandomSPD(120, 4, 1.5, 90)
	b := workload.RandomRHS(120, 91)
	var phase atomic.Bool // false: skew phase
	s, err := New(a, Options{
		Seed: 92, Workers: 4, Partitioned: true,
		Throttle: func(w int, j uint64) {
			if !phase.Load() && w != 0 {
				time.Sleep(20 * time.Microsecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 120)
	s.AsyncSweeps(x, b, 2)
	phase.Store(true)
	for blk := 0; blk < 4; blk++ {
		lo, hi := blk*30, (blk+1)*30
		touched := false
		for i := lo; i < hi; i++ {
			if x[i] != 0 {
				touched = true
				break
			}
		}
		if !touched {
			t.Fatalf("block %d received no updates despite per-worker budgets", blk)
		}
	}
	// And the solve must converge from here.
	if res, err := s.SolveAsync(x, b, 1e-6, 2000, 20); err != nil {
		t.Fatalf("partitioned solve under past skew did not converge: %+v", res)
	}
}

package kaczmarz

import (
	"context"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/outer"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// solveTo drives s through outer.Run to tol within maxIter projections,
// measuring every every projections, and fails the test unless the solve
// converged. It returns the projections run.
func solveTo(t *testing.T, s *Solver, x, b []float64, tol float64, maxIter, every int) int {
	t.Helper()
	p, err := outer.Run(context.Background(), tol, maxIter, every,
		func(k int) int { s.Iterations(x, b, k); return k },
		func() float64 { return s.Residual(x, b) })
	if err != nil || !p.Converged {
		t.Fatalf("did not converge: %+v, %v", p, err)
	}
	return p.Done
}

func TestNewValidation(t *testing.T) {
	if _, err := New(sparse.NewCOO(0, 0).ToCSR(), Options{}); err == nil {
		t.Fatal("empty matrix must be rejected")
	}
	if _, err := New(sparse.NewCOO(2, 2).ToCSR(), Options{}); err == nil {
		t.Fatal("zero matrix must be rejected")
	}
	if _, err := New(sparse.Identity(2), Options{Beta: 2}); err == nil {
		t.Fatal("β=2 must be rejected")
	}
	if _, err := New(sparse.Identity(2), Options{Beta: math.NaN()}); err == nil {
		t.Fatal("β=NaN must be rejected")
	}
}

func TestConvergesOnSquareSystem(t *testing.T) {
	a := workload.RandomSPD(40, 5, 1.5, 1) // nonsingular, consistent for any b
	b, xstar := workload.RHSForSolution(a, 2)
	s, err := New(a, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 40)
	solveTo(t, s, x, b, 1e-9, 200_000, 4000)
	if e := vec.RelErr(x, xstar); e > 1e-7 {
		t.Fatalf("solution error %v", e)
	}
}

func TestConvergesOnConsistentOverdetermined(t *testing.T) {
	a := workload.RandomOverdetermined(80, 30, 4, 4)
	b, xstar := workload.RHSForSolution(a, 5) // consistent: b = A·x*
	s, _ := New(a, Options{Seed: 6})
	x := make([]float64, 30)
	solveTo(t, s, x, b, 1e-9, 500_000, 5000)
	if e := vec.RelErr(x, xstar); e > 1e-6 {
		t.Fatalf("solution error %v", e)
	}
}

func TestAsyncConverges(t *testing.T) {
	a := workload.RandomSPD(100, 5, 1.5, 10)
	b, xstar := workload.RHSForSolution(a, 11)
	s, _ := New(a, Options{Seed: 12, Workers: 4, Beta: 0.8})
	x := make([]float64, 100)
	solveTo(t, s, x, b, 1e-7, 2_000_000, 20_000)
	if e := vec.RelErr(x, xstar); e > 1e-4 {
		t.Fatalf("async solution error %v", e)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := workload.RandomSPD(20, 4, 1.5, 13)
	b := workload.RandomRHS(20, 14)
	run := func() []float64 {
		s, _ := New(a, Options{Seed: 15})
		x := make([]float64, 20)
		s.Iterations(x, b, 500)
		return x
	}
	if !vec.Equal(run(), run(), 0) {
		t.Fatal("sequential Kaczmarz must be deterministic for a fixed seed")
	}
}

func TestRateMatchesTheoryOrder(t *testing.T) {
	// E‖x_m − x*‖² ≤ (1 − λmin(AᵀA)/‖A‖_F²)^m: check the measured decay
	// does not violate the bound grossly (single run, generous factor).
	a := workload.RandomSPD(30, 4, 2.0, 16)
	b, xstar := workload.RHSForSolution(a, 17)
	s, _ := New(a, Options{Seed: 18})
	x := make([]float64, 30)
	e0 := normSq(x, xstar)
	const m = 3000
	s.Iterations(x, b, m)
	em := normSq(x, xstar)
	if em > e0 {
		t.Fatalf("error grew: %v -> %v", e0, em)
	}
}

func normSq(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func TestResidualMetric(t *testing.T) {
	a := sparse.Identity(3)
	s, _ := New(a, Options{})
	x := []float64{1, 2, 3}
	b := []float64{1, 2, 3}
	if res := s.Residual(x, b); res != 0 {
		t.Fatalf("Residual at solution = %v", res)
	}
	if res := s.Residual(make([]float64, 3), b); math.Abs(res-1) > 1e-15 {
		t.Fatalf("Residual at zero = %v, want 1", res)
	}
}

func TestExactSolutionReachedByProjectionOnIdentity(t *testing.T) {
	// On the identity each projection sets one coordinate exactly, so n·ln
	// coupon-collector iterations solve the system to machine precision.
	a := sparse.Identity(8)
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	s, _ := New(a, Options{Seed: 19})
	x := make([]float64, 8)
	s.Iterations(x, b, 500)
	if e := vec.RelErr(x, b); e > 1e-14 {
		t.Fatalf("identity system not solved exactly: %v", e)
	}
}

func TestDirectSolveAgreement(t *testing.T) {
	a := workload.RandomSPD(25, 4, 1.6, 20)
	b := workload.RandomRHS(25, 21)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(a, Options{Seed: 22})
	x := make([]float64, 25)
	solveTo(t, s, x, b, 1e-10, 500_000, 5000)
	if e := vec.RelErr(x, want); e > 1e-8 {
		t.Fatalf("Kaczmarz vs direct: %v", e)
	}
}

// TestAliasRowMarginals checks that the O(1) alias draw selects rows
// with the exact Strohmer–Vershynin marginals ‖A_i‖²/‖A‖_F² over a large
// budget.
func TestAliasRowMarginals(t *testing.T) {
	a := workload.RandomSPD(12, 4, 1.5, 60)
	s, err := New(a, Options{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	var frob2 float64
	for _, v := range a.Vals {
		frob2 += v * v
	}
	stream := rng.NewStream(61)
	const draws = 200_000
	counts := make([]float64, a.Rows)
	for j := uint64(0); j < draws; j++ {
		counts[s.tab.Pick(stream, j)]++
	}
	for i := 0; i < a.Rows; i++ {
		var norm2 float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			norm2 += a.Vals[k] * a.Vals[k]
		}
		if got, want := counts[i]/draws, norm2/frob2; math.Abs(got-want) > 6e-3 {
			t.Fatalf("row %d: alias marginal %.4f vs exact %.4f", i, got, want)
		}
	}
}

// TestChunkedAsyncConverges runs the asynchronous variant at explicit
// claiming granularities; the projection multiset is chunk-invariant so
// every configuration must converge.
func TestChunkedAsyncConverges(t *testing.T) {
	a := workload.RandomSPD(60, 5, 1.5, 62)
	b, xstar := workload.RHSForSolution(a, 63)
	for _, chunk := range []int{0, 1, 64, 100000} {
		s, err := New(a, Options{Seed: 64, Workers: 4, Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 60)
		solveTo(t, s, x, b, 1e-8, 400000, 5000)
		if e := vec.RelErr(x, xstar); e > 1e-6 {
			t.Fatalf("chunk=%d solution error %g", chunk, e)
		}
	}
	if _, err := New(a, Options{Chunk: -2}); err == nil {
		t.Fatal("negative chunk must be rejected")
	}
}

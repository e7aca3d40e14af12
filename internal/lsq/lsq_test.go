package lsq

import (
	"context"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/outer"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// solveTo drives s through outer.Run until ‖Aᵀ(b−Ax)‖₂ ≤ tol within
// maxIter steps, measuring every every steps, and fails the test unless
// the solve converged.
func solveTo(t *testing.T, s *Solver, x, b []float64, tol float64, maxIter, every int) {
	t.Helper()
	p, err := outer.Run(context.Background(), tol, maxIter, every,
		func(k int) int { s.Iterations(x, b, k); return k },
		func() float64 { return s.LSQResidual(x, b) })
	if err != nil || !p.Converged {
		t.Fatalf("did not converge: %+v, %v", p, err)
	}
}

// lsqReference computes the least-squares minimiser via the dense normal
// equations.
func lsqReference(t *testing.T, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	ata := sparse.Gram(a)
	atb := make([]float64, a.Cols)
	a.ToCSC().MulTransVec(atb, b)
	x, err := dense.SolveCSR(ata, atb)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(sparse.NewCOO(2, 3).ToCSR(), Options{}); err == nil {
		t.Fatal("underdetermined matrix must be rejected")
	}
	coo := sparse.NewCOO(3, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 0, 1) // column 1 empty
	if _, err := New(coo.ToCSR(), Options{}); err == nil {
		t.Fatal("zero column must be rejected")
	}
	if _, err := New(workload.RandomOverdetermined(6, 3, 2, 1), Options{Beta: -1}); err == nil {
		t.Fatal("negative β must be rejected")
	}
	if _, err := New(workload.RandomOverdetermined(6, 3, 2, 1), Options{Beta: math.NaN()}); err == nil {
		t.Fatal("β = NaN must be rejected")
	}
}

func TestSequentialConvergesToLeastSquares(t *testing.T) {
	a := workload.RandomOverdetermined(60, 20, 4, 2)
	b := workload.RandomRHS(60, 3) // generically inconsistent
	want := lsqReference(t, a, b)
	s, err := New(a, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	solveTo(t, s, x, b, 1e-9, 500_000, 2000)
	if e := vec.RelErr(x, want); e > 1e-6 {
		t.Fatalf("minimiser error %v", e)
	}
}

func TestSequentialConsistentSystemReachesExact(t *testing.T) {
	a := workload.RandomOverdetermined(50, 15, 4, 5)
	b, xstar := workload.RHSForSolution(a, 6)
	s, _ := New(a, Options{Seed: 7})
	x := make([]float64, 15)
	solveTo(t, s, x, b, 1e-10, 500_000, 2000)
	if e := vec.RelErr(x, xstar); e > 1e-7 {
		t.Fatalf("consistent-system error %v", e)
	}
}

func TestAsyncConverges(t *testing.T) {
	a := workload.RandomOverdetermined(120, 40, 5, 8)
	b := workload.RandomRHS(120, 9)
	want := lsqReference(t, a, b)
	s, _ := New(a, Options{Seed: 10, Workers: 4, Beta: 0.9})
	x := make([]float64, 40)
	solveTo(t, s, x, b, 1e-7, 3_000_000, 20_000)
	if e := vec.RelErr(x, want); e > 1e-4 {
		t.Fatalf("async minimiser error %v", e)
	}
}

func TestAsyncDefaultBetaBelowOne(t *testing.T) {
	// Theorem 5 needs β < 1 asynchronously; the zero-value default must
	// respect that.
	a := workload.RandomOverdetermined(20, 8, 3, 11)
	s, err := New(a, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.beta >= 1 {
		t.Fatalf("async default β = %v, want < 1", s.beta)
	}
	sSeq, _ := New(a, Options{})
	if sSeq.beta != 1 {
		t.Fatalf("sequential default β = %v, want 1", sSeq.beta)
	}
}

func TestIterationEquivalenceWithAsyRGSOnNormalEquations(t *testing.T) {
	// §8: iteration (21) is AsyRGS applied to AᵀA x = Aᵀb. With one
	// worker and the same direction stream, the trajectories must agree
	// after accounting for the diagonal normalisation: AsyRGS on AᵀA with
	// general diagonal divides by (AᵀA)_jj = ‖A e_j‖², exactly like (21).
	a := workload.RandomOverdetermined(30, 10, 3, 12)
	b := workload.RandomRHS(30, 13)

	s, _ := New(a, Options{Seed: 14, Beta: 0.7})
	x1 := make([]float64, 10)
	s.Iterations(x1, b, 400)

	ata, atb := s.Normal(b)
	rgs, err := core.New(ata, core.Options{Seed: 14, Beta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, 10)
	rgs.Sweeps(x2, atb, 40) // 40 sweeps × 10 cols = 400 iterations
	if !vec.Equal(x1, x2, 1e-9) {
		t.Fatalf("lsq iteration diverged from AsyRGS on the normal equations:\n%v\n%v", x1, x2)
	}
}

func TestLSQResidualVanishesAtMinimiser(t *testing.T) {
	a := workload.RandomOverdetermined(40, 12, 4, 15)
	b := workload.RandomRHS(40, 16)
	want := lsqReference(t, a, b)
	s, _ := New(a, Options{})
	if res := s.LSQResidual(want, b); res > 1e-8 {
		t.Fatalf("‖Aᵀr‖ at the minimiser = %v", res)
	}
	// The plain residual must equal ‖b−Ax‖ and be non-zero for an
	// inconsistent system.
	if rn := s.ResidualNorm(want, b); rn <= 0 {
		t.Fatal("inconsistent system should have positive residual")
	}
}

func TestSquareUnsymmetricSystem(t *testing.T) {
	// §8 covers unsymmetric nonsingular square systems as a special case.
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 3)
	coo.Add(0, 1, 1)
	coo.Add(1, 1, 2)
	coo.Add(1, 2, -1)
	coo.Add(2, 0, 1)
	coo.Add(2, 2, 4)
	a := coo.ToCSR()
	want := []float64{1, -2, 0.5}
	b := make([]float64, 3)
	a.MulVec(b, want)
	s, err := New(a, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	solveTo(t, s, x, b, 1e-12, 500_000, 1000)
	if e := vec.RelErr(x, want); e > 1e-9 {
		t.Fatalf("unsymmetric solve error %v", e)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	a := workload.RandomOverdetermined(25, 8, 3, 18)
	b := workload.RandomRHS(25, 19)
	run := func() []float64 {
		s, _ := New(a, Options{Seed: 20})
		x := make([]float64, 8)
		s.Iterations(x, b, 300)
		return x
	}
	if !vec.Equal(run(), run(), 0) {
		t.Fatal("sequential lsq must be deterministic")
	}
}

// TestRoundsFromOneResidualMatchOneCall pins that SequentialIterations,
// called once per sweep on one running residual, is the same iteration as
// one Iterations call over all the sweeps: bit-identical iterates, for
// uniform and norm-weighted columns. Single worker, so deterministic.
func TestRoundsFromOneResidualMatchOneCall(t *testing.T) {
	a := workload.RandomOverdetermined(80, 24, 4, 30)
	b := workload.RandomRHS(a.Rows, 31)
	const sweeps = 7
	for _, weighted := range []bool{false, true} {
		opts := Options{Seed: 32, NormWeighted: weighted}
		one, _ := New(a, opts)
		want := make([]float64, a.Cols)
		one.Iterations(want, b, sweeps*a.Cols)

		rounds, _ := New(a, opts)
		x := make([]float64, a.Cols)
		r := make([]float64, a.Rows)
		a.MulVec(r, x)
		vec.Sub(r, b, r)
		for k := 0; k < sweeps; k++ {
			rounds.SequentialIterations(x, r, a.Cols)
		}
		if !vec.Equal(x, want, 0) {
			t.Fatalf("weighted %v: %d one-sweep rounds differ from one %d-sweep call", weighted, sweeps, sweeps)
		}
	}
}

// TestNormWeightedConverges runs the ‖A e_j‖²-weighted alias draw (the
// general Leventhal–Lewis distribution) through both the sequential and
// the asynchronous iteration, at explicit claiming granularities, and
// checks convergence to the least-squares minimizer.
func TestNormWeightedConverges(t *testing.T) {
	a := workload.RandomOverdetermined(90, 30, 5, 70)
	b := workload.RandomRHS(a.Rows, 71)

	// Normal-equations reference.
	ata, atb := func() (*sparse.CSR, []float64) {
		s, _ := New(a, Options{})
		return s.Normal(b)
	}()
	xref, err := dense.SolveCSR(ata, atb)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		workers int
		chunk   int
	}{
		{"sequential", 1, 0},
		{"async", 4, 0},
		{"async-chunk1", 4, 1},
		{"async-chunk128", 4, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(a, Options{Seed: 72, Workers: tc.workers, Chunk: tc.chunk, NormWeighted: true})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, a.Cols)
			solveTo(t, s, x, b, 1e-9, 300000, 3000)
			if e := vec.RelErr(x, xref); e > 1e-5 {
				t.Fatalf("solution error %g vs normal equations", e)
			}
		})
	}
}

// TestNormWeightedAliasBuiltOncePerPrep checks the amortization contract:
// repeated forks off one Prep share a single alias table.
func TestNormWeightedAliasBuiltOncePerPrep(t *testing.T) {
	a := workload.RandomOverdetermined(40, 15, 4, 73)
	p, err := PrepareMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewFromPrep(p, Options{NormWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewFromPrep(p, Options{NormWeighted: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s1.tab == nil || s1.tab != s2.tab {
		t.Fatal("forked solvers must share the Prep's alias table")
	}
	if _, err := NewFromPrep(p, Options{Chunk: -1}); err == nil {
		t.Fatal("negative chunk must be rejected")
	}
}

// TestNormATIsTheResidualAtZero: NormAT(b) is ‖Aᵀb‖₂, the optimality
// residual at x = 0 that scales every relative least-squares residual.
// It must equal LSQResidual at a zero iterate bit for bit (A·0 is exactly
// zero, so b − A·0 is b) and agree with Aᵀb formed from the transpose.
func TestNormATIsTheResidualAtZero(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 3)
	coo.Add(0, 1, -1)
	coo.Add(1, 1, 2)
	coo.Add(2, 0, -1)
	coo.Add(2, 2, 4)
	cases := []struct {
		name string
		a    *sparse.CSR
		b    []float64
	}{
		{"overdetermined", workload.RandomOverdetermined(192, 48, 5, 3), workload.RandomRHS(192, 4)},
		{"tall-and-thin", workload.RandomOverdetermined(400, 4, 3, 5), workload.RandomRHS(400, 6)},
		{"square-unsymmetric", coo.ToCSR(), []float64{1, -2, 0.5}},
		{"zero-rhs", workload.RandomOverdetermined(60, 20, 4, 7), make([]float64, 60)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.a, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := s.NormAT(tc.b)
			if want := s.LSQResidual(make([]float64, tc.a.Cols), tc.b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("NormAT(b) = %v, LSQResidual(0, b) = %v; want the same bits", got, want)
			}
			atb := make([]float64, tc.a.Cols)
			tc.a.Transpose().MulVec(atb, tc.b)
			if want := vec.Nrm2(atb); math.Abs(got-want) > 1e-12*max(want, 1) {
				t.Fatalf("NormAT(b) = %v, ‖Aᵀb‖ from the transpose = %v", got, want)
			}
		})
	}
}

package krylov

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func spd(t *testing.T, n int, seed uint64) *sparse.CSR {
	t.Helper()
	return workload.RandomSPD(n, 5, 1.4, seed)
}

func TestCGMatchesDirectSolve(t *testing.T) {
	a := spd(t, 60, 1)
	b := workload.RandomRHS(60, 2)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 60)
	res, err := CG(a, x, b, CGOptions{Tol: 1e-12, MaxIter: 600})
	if err != nil {
		t.Fatalf("CG: %v (%+v)", err, res)
	}
	if !res.Converged || res.Residual > 1e-12 {
		t.Fatalf("bad result %+v", res)
	}
	if e := vec.RelErr(x, want); e > 1e-9 {
		t.Fatalf("CG error %v vs direct", e)
	}
}

func TestCGExactInNIterations(t *testing.T) {
	// CG reaches the exact solution in at most n steps (exact arithmetic);
	// numerically it should converge well before 2n on a small system.
	a := spd(t, 25, 3)
	b := workload.RandomRHS(25, 4)
	x := make([]float64, 25)
	res, err := CG(a, x, b, CGOptions{Tol: 1e-10, MaxIter: 50})
	if err != nil || res.Iterations > 50 {
		t.Fatalf("CG took %d iterations: %v", res.Iterations, err)
	}
}

func TestCGHonorsInitialGuess(t *testing.T) {
	a := spd(t, 30, 7)
	b := workload.RandomRHS(30, 8)
	want, _ := dense.SolveCSR(a, b)
	x := append([]float64(nil), want...) // exact guess
	res, err := CG(a, x, b, CGOptions{Tol: 1e-10, MaxIter: 10})
	if err != nil || res.Iterations != 0 {
		t.Fatalf("exact initial guess should converge immediately: %+v %v", res, err)
	}
}

func TestCGParallelMatchesSerial(t *testing.T) {
	a := spd(t, 400, 9)
	b := workload.RandomRHS(400, 10)
	x1 := make([]float64, 400)
	x2 := make([]float64, 400)
	_, _ = CG(a, x1, b, CGOptions{Tol: 1e-10, MaxIter: 2000, Workers: 1})
	_, _ = CG(a, x2, b, CGOptions{Tol: 1e-10, MaxIter: 2000, Workers: 8})
	if e := vec.RelErr(x1, x2); e > 1e-7 {
		t.Fatalf("parallel CG diverged from serial: %v", e)
	}
}

func TestCGNotConverged(t *testing.T) {
	a := spd(t, 40, 11)
	b := workload.RandomRHS(40, 12)
	x := make([]float64, 40)
	_, err := CG(a, x, b, CGOptions{Tol: 1e-30, MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
}

func TestCGDenseMatchesPerColumnCG(t *testing.T) {
	a := spd(t, 50, 13)
	const c = 4
	b := workload.MultiRHS(50, c, 14)
	x := vec.NewDense(50, c)
	res, err := CGDense(a, x, b, CGOptions{Tol: 1e-11, MaxIter: 400}, nil)
	if err != nil {
		t.Fatalf("CGDense: %v (%+v)", err, res)
	}
	for j := 0; j < c; j++ {
		bj := make([]float64, 50)
		b.Col(bj, j)
		want, _ := dense.SolveCSR(a, bj)
		got := make([]float64, 50)
		x.Col(got, j)
		if e := vec.RelErr(got, want); e > 1e-7 {
			t.Fatalf("CGDense column %d error %v", j, e)
		}
	}
}

func TestCGDenseHistoryDecreases(t *testing.T) {
	a := spd(t, 40, 15)
	b := workload.MultiRHS(40, 3, 16)
	x := vec.NewDense(40, 3)
	var hist []float64
	_, _ = CGDense(a, x, b, CGOptions{Tol: 1e-10, MaxIter: 100}, &hist)
	if len(hist) < 2 || hist[len(hist)-1] >= hist[0] {
		t.Fatalf("residual history should decrease: %v", hist)
	}
}

func TestFlexibleCGWithIdentityBehavesLikeCG(t *testing.T) {
	a := spd(t, 60, 17)
	b := workload.RandomRHS(60, 18)
	want, _ := dense.SolveCSR(a, b)
	x := make([]float64, 60)
	res, err := FlexibleCG(a, x, b, Identity{}, FCGOptions{Tol: 1e-11, MaxIter: 300})
	if err != nil {
		t.Fatalf("FCG: %v (%+v)", err, res)
	}
	if e := vec.RelErr(x, want); e > 1e-8 {
		t.Fatalf("FCG error %v", e)
	}
}

func TestFlexibleCGWithExactInverseConvergesInstantly(t *testing.T) {
	a := spd(t, 30, 19)
	b := workload.RandomRHS(30, 20)
	inv, err := dense.Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	pre := PrecondFunc(func(z, r []float64) {
		copy(z, dense.MulVec(inv, r, len(r)))
	})
	x := make([]float64, 30)
	res, err := FlexibleCG(a, x, b, pre, FCGOptions{Tol: 1e-10, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("exact preconditioner should converge in ≤2 iterations, took %d", res.Iterations)
	}
}

func TestFlexibleCGToleratesNondeterministicPreconditioner(t *testing.T) {
	// A preconditioner that changes every application (like AsyRGS):
	// alternating damped-Jacobi strengths. Plain CG theory breaks; FCG
	// must still converge.
	a := spd(t, 80, 23)
	b := workload.RandomRHS(80, 24)
	inv := InvDiag(a)
	calls := 0
	pre := PrecondFunc(func(z, r []float64) {
		for i := range z {
			z[i] = inv[i] * r[i]
		}
		calls++
		scale := 1.0
		if calls%2 == 0 {
			scale = 0.5 // different operator on alternate calls
		}
		vec.Scal(scale, z)
	})
	x := make([]float64, 80)
	res, err := FlexibleCG(a, x, b, pre, FCGOptions{Tol: 1e-9, MaxIter: 1000})
	if err != nil {
		t.Fatalf("FCG with changing preconditioner failed: %v (%+v)", err, res)
	}
}

func TestJacobiConvergesOnDiagonallyDominant(t *testing.T) {
	a := spd(t, 50, 25)
	b := workload.RandomRHS(50, 26)
	x := make([]float64, 50)
	res := Jacobi(a, x, b, 500, 1e-8, 2)
	if !res.Converged {
		t.Fatalf("Jacobi should converge on a strictly dominant system: %+v", res)
	}
	want, _ := dense.SolveCSR(a, b)
	if e := vec.RelErr(x, want); e > 1e-6 {
		t.Fatalf("Jacobi error %v", e)
	}
}

// TestJacobiReportsTheIterateItReturns pins that a converged Jacobi
// result describes the returned x: its Residual is ‖b − A·x‖/‖b‖
// recomputed from that x, and Sweeps counts the updates applied.
func TestJacobiReportsTheIterateItReturns(t *testing.T) {
	a := workload.RandomSPD(200, 6, 1.5, 40)
	b := workload.RandomRHS(200, 41)
	for _, workers := range []int{1, 2} {
		x := make([]float64, 200)
		res := Jacobi(a, x, b, 1000, 1e-8, workers)
		if !res.Converged {
			t.Fatalf("workers %d: %+v", workers, res)
		}
		r := make([]float64, 200)
		a.MulVec(r, x)
		vec.Sub(r, b, r)
		want := vec.Nrm2(r) / vec.Nrm2(b)
		if math.Abs(res.Residual-want) > 1e-12*want {
			t.Fatalf("workers %d: reported residual %.6e, recomputed from the returned x %.6e", workers, res.Residual, want)
		}
		// The same sweeps again from zero end on the same iterate.
		y := make([]float64, 200)
		if again := Jacobi(a, y, b, res.Sweeps, 0, workers); !vec.Equal(x, y, 0) || again.Residual != res.Residual {
			t.Fatalf("workers %d: %d fixed sweeps give residual %.6e, the converged call %.6e", workers, res.Sweeps, again.Residual, res.Residual)
		}
	}
}

func TestGaussSeidelConvergesAndBeatsJacobi(t *testing.T) {
	a := spd(t, 50, 27)
	b := workload.RandomRHS(50, 28)
	xj := make([]float64, 50)
	xg := make([]float64, 50)
	const sweeps = 30
	rj := Jacobi(a, xj, b, sweeps, 0, 1)
	rg := GaussSeidel(a, xg, b, sweeps, 0)
	if rg.Residual >= rj.Residual {
		t.Fatalf("after %d sweeps GS residual %v should beat Jacobi %v", sweeps, rg.Residual, rj.Residual)
	}
}

func TestGaussSeidelEarlyStop(t *testing.T) {
	a := spd(t, 30, 29)
	b := workload.RandomRHS(30, 30)
	x := make([]float64, 30)
	res := GaussSeidel(a, x, b, 10_000, 1e-10)
	if !res.Converged || res.Sweeps == 10_000 {
		t.Fatalf("GS should stop early: %+v", res)
	}
}

func TestIdentityPreconditioner(t *testing.T) {
	z := make([]float64, 2)
	Identity{}.Apply(z, []float64{1, 2})
	if z[0] != 1 || z[1] != 2 {
		t.Fatal("Identity should copy")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := spd(t, 10, 31)
	x := make([]float64, 10)
	res, err := CG(a, x, make([]float64, 10), CGOptions{Tol: 1e-10, MaxIter: 10})
	if err != nil || !res.Converged {
		t.Fatalf("zero RHS should converge immediately: %+v %v", res, err)
	}
	if vec.Nrm2(x) != 0 {
		t.Fatal("solution should stay zero")
	}
}

func TestCGIndefiniteDetection(t *testing.T) {
	// An indefinite matrix breaks the pAp > 0 invariant; CG must stop
	// with ErrNotConverged rather than diverge silently.
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	a := coo.ToCSR()
	x := make([]float64, 2)
	_, err := CG(a, x, []float64{0, 1}, CGOptions{Tol: 1e-12, MaxIter: 10})
	if err == nil {
		t.Fatal("indefinite system should not report convergence")
	}
	if math.IsNaN(x[0]) || math.IsNaN(x[1]) {
		t.Fatal("iterate must stay finite")
	}
}

func TestAsyncJacobiConverges(t *testing.T) {
	// Regime: unbounded delay. The four workers run on however many CPUs
	// the scheduler grants, so one block can spend its whole budget
	// against another's stale values, and no per-sweep rate holds. What
	// holds for any interleaving is convergence: the matrix is strictly
	// diagonally dominant (diagonal = 1.4 × off-diagonal row sum), so by
	// the totally asynchronous convergence theorem each call, which
	// relaxes every coordinate at least once on current values, shrinks
	// the max-norm error by at least 1/1.4. The test therefore runs to
	// tolerance in steps of 40 sweeps, capped at 4000 (10× the fixed
	// budget that failed about 1 run in 100 on 2 CPUs).
	a := spd(t, 200, 33)
	b := workload.RandomRHS(200, 34)
	want, _ := dense.SolveCSR(a, b)
	x := make([]float64, 200)
	const step, maxSweeps, tol = 40, 4000, 1e-3
	res := math.Inf(1)
	for sweeps := 0; sweeps < maxSweeps && res > tol; sweeps += step {
		res = AsyncJacobi(a, x, b, step, 4).Residual
	}
	if res > tol {
		t.Fatalf("async Jacobi residual %v after %d sweeps", res, maxSweeps)
	}
	if e := vec.RelErr(x, want); e > 1e-2 {
		t.Fatalf("async Jacobi error %v", e)
	}
}

func TestAsyncJacobiSingleWorkerIsGaussSeidelLike(t *testing.T) {
	// One worker, one block: the update is exactly forward Gauss–Seidel.
	a := spd(t, 40, 35)
	b := workload.RandomRHS(40, 36)
	x1 := make([]float64, 40)
	AsyncJacobi(a, x1, b, 5, 1)
	x2 := make([]float64, 40)
	GaussSeidel(a, x2, b, 5, 0)
	if e := vec.RelErr(x1, x2); e > 1e-12 {
		t.Fatalf("single-worker async Jacobi diverged from GS: %v", e)
	}
}

func TestAsyncJacobiThrottledStarvation(t *testing.T) {
	// Starve worker 0's block: its coordinates receive far fewer
	// effective updates, demonstrating the single-point-of-failure
	// weakness of deterministic asynchronous methods (Hook–Dingle). The
	// run must still finish and the healthy blocks must have progressed.
	a := spd(t, 200, 37)
	b := workload.RandomRHS(200, 38)
	slowCalls := 0
	x := make([]float64, 200)
	res := AsyncJacobiWithInv(context.Background(), a, InvDiag(a), x, b, 20, 4, func(w, i int) {
		if w == 0 {
			slowCalls++ // just count; heavy sleeps would slow the suite
		}
	})
	if slowCalls == 0 {
		t.Fatal("throttle was never invoked for worker 0")
	}
	if res.Residual >= 1 {
		t.Fatalf("async Jacobi made no progress: %v", res.Residual)
	}
}

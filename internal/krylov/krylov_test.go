package krylov

import (
	"context"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/outer"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func spd(t *testing.T, n int, seed uint64) *sparse.CSR {
	t.Helper()
	return workload.RandomSPD(n, 5, 1.4, seed)
}

// step is the shape every solver here shares and outer.Run drives.
type step interface {
	Step(k int) int
	Residual() float64
}

// solve drives st to tol within budget units, measuring the initial
// iterate and then after every unit, as the registry drives cg, fcg and
// jacobi.
func solve(t *testing.T, st step, tol float64, budget int) outer.Progress {
	t.Helper()
	p, err := outer.RunEveryStep(context.Background(), tol, budget, st.Step, st.Residual)
	if err != nil {
		t.Fatalf("outer.RunEveryStep: %v (%+v)", err, p)
	}
	return p
}

// invDiag returns the reciprocal of a's diagonal, every entry non-zero.
func invDiag(a *sparse.CSR) []float64 {
	inv := a.Diag()
	for i, d := range inv {
		inv[i] = 1 / d
	}
	return inv
}

func TestCGMatchesDirectSolve(t *testing.T) {
	a := spd(t, 60, 1)
	b := workload.RandomRHS(60, 2)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 60)
	res := solve(t, NewCG(a, x, b, 0), 1e-12, 600)
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
	if res := solve(t, NewCG(a, x, b, 0), 1e-10, 50); !res.Converged {
		t.Fatalf("CG did not converge in 50 iterations: %+v", res)
	}
}

// TestCGHonorsInitialGuess: CG starts from the x it is given; from the
// exact solution it converges at once, with no iteration and x untouched.
func TestCGHonorsInitialGuess(t *testing.T) {
	a := spd(t, 30, 7)
	b := workload.RandomRHS(30, 8)
	want, _ := dense.SolveCSR(a, b)
	x := append([]float64(nil), want...) // exact guess
	if res := solve(t, NewCG(a, x, b, 0), 1e-10, 10); !res.Converged || res.Done != 0 || !vec.Equal(x, want, 0) {
		t.Fatalf("exact initial guess should converge immediately: %+v", res)
	}
}

func TestCGParallelMatchesSerial(t *testing.T) {
	a := spd(t, 400, 9)
	b := workload.RandomRHS(400, 10)
	x1 := make([]float64, 400)
	x2 := make([]float64, 400)
	solve(t, NewCG(a, x1, b, 1), 1e-10, 2000)
	solve(t, NewCG(a, x2, b, 8), 1e-10, 2000)
	if e := vec.RelErr(x1, x2); e > 1e-7 {
		t.Fatalf("parallel CG diverged from serial: %v", e)
	}
}

func TestCGNotConverged(t *testing.T) {
	a := spd(t, 40, 11)
	b := workload.RandomRHS(40, 12)
	x := make([]float64, 40)
	if res := solve(t, NewCG(a, x, b, 0), 1e-30, 2); res.Converged || res.Done != 2 {
		t.Fatalf("want 2 iterations, not converged; got %+v", res)
	}
}

func TestCGDenseMatchesPerColumnCG(t *testing.T) {
	a := spd(t, 50, 13)
	const c = 4
	b := workload.MultiRHS(50, c, 14)
	x := vec.NewDense(50, c)
	CGDense(a, x, b, 100, 0, nil)
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
	CGDense(a, x, b, 30, 0, &hist)
	if len(hist) != 31 || hist[len(hist)-1] >= hist[0] {
		t.Fatalf("residual history should hold 31 decreasing values: %v", hist)
	}
}

func TestFlexibleCGWithIdentityBehavesLikeCG(t *testing.T) {
	a := spd(t, 60, 17)
	b := workload.RandomRHS(60, 18)
	want, _ := dense.SolveCSR(a, b)
	x := make([]float64, 60)
	if res := solve(t, NewFCG(a, x, b, Identity{}, 0), 1e-11, 300); !res.Converged {
		t.Fatalf("FCG: %+v", res)
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
	if res := solve(t, NewFCG(a, x, b, pre, 0), 1e-10, 10); !res.Converged || res.Done > 2 {
		t.Fatalf("exact preconditioner should converge in ≤2 iterations: %+v", res)
	}
}

func TestFlexibleCGToleratesNondeterministicPreconditioner(t *testing.T) {
	// A preconditioner that changes every application (like AsyRGS):
	// alternating damped-Jacobi strengths. Plain CG theory breaks; FCG
	// must still converge.
	a := spd(t, 80, 23)
	b := workload.RandomRHS(80, 24)
	inv := invDiag(a)
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
	if res := solve(t, NewFCG(a, x, b, pre, 0), 1e-9, 1000); !res.Converged {
		t.Fatalf("FCG with changing preconditioner failed: %+v", res)
	}
}

func TestJacobiConvergesOnDiagonallyDominant(t *testing.T) {
	a := spd(t, 50, 25)
	b := workload.RandomRHS(50, 26)
	x := make([]float64, 50)
	res := solve(t, NewJacobi(a, invDiag(a), x, b, 2), 1e-8, 500)
	if !res.Converged {
		t.Fatalf("Jacobi should converge on a strictly dominant system: %+v", res)
	}
	want, _ := dense.SolveCSR(a, b)
	if e := vec.RelErr(x, want); e > 1e-6 {
		t.Fatalf("Jacobi error %v", e)
	}
}

// TestJacobiReportsTheIterateItReturns pins that a converged Jacobi
// solve describes the returned x: its residual is ‖b − A·x‖/‖b‖
// recomputed from that x, and Done counts the updates applied.
func TestJacobiReportsTheIterateItReturns(t *testing.T) {
	a := workload.RandomSPD(200, 6, 1.5, 40)
	b := workload.RandomRHS(200, 41)
	inv := invDiag(a)
	for _, workers := range []int{1, 2} {
		x := make([]float64, 200)
		res := solve(t, NewJacobi(a, inv, x, b, workers), 1e-8, 1000)
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
		if again := solve(t, NewJacobi(a, inv, y, b, workers), 0, res.Done); !vec.Equal(x, y, 0) || again.Residual != res.Residual {
			t.Fatalf("workers %d: %d fixed sweeps give residual %.6e, the converged solve %.6e", workers, res.Done, again.Residual, res.Residual)
		}
	}
}

func TestGaussSeidelConvergesAndBeatsJacobi(t *testing.T) {
	a := spd(t, 50, 27)
	b := workload.RandomRHS(50, 28)
	xj := make([]float64, 50)
	xg := make([]float64, 50)
	const sweeps = 30
	rj := solve(t, NewJacobi(a, invDiag(a), xj, b, 1), 0, sweeps)
	rg := solve(t, NewGaussSeidel(a, invDiag(a), xg, b), 0, sweeps)
	if rg.Residual >= rj.Residual {
		t.Fatalf("after %d sweeps GS residual %v should beat Jacobi %v", sweeps, rg.Residual, rj.Residual)
	}
}

func TestGaussSeidelEarlyStop(t *testing.T) {
	a := spd(t, 30, 29)
	b := workload.RandomRHS(30, 30)
	x := make([]float64, 30)
	res := solve(t, NewGaussSeidel(a, invDiag(a), x, b), 1e-10, 10_000)
	if !res.Converged || res.Done == 10_000 {
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

// TestCGZeroRHS: with b = 0 from x = 0 the residual is exactly zero, so
// the first step breaks down (pᵀAp = 0) and advances nothing; the solve
// stops there, converged after zero iterations, for CG and Flexible-CG.
func TestCGZeroRHS(t *testing.T) {
	a := spd(t, 10, 31)
	b := make([]float64, 10)
	for name, start := range map[string]func(x []float64) step{
		"cg":  func(x []float64) step { return NewCG(a, x, b, 0) },
		"fcg": func(x []float64) step { return NewFCG(a, x, b, nil, 0) },
	} {
		x := make([]float64, 10)
		if res := solve(t, start(x), 1e-10, 10); !res.Converged || res.Done != 0 || res.Residual != 0 {
			t.Fatalf("%s: zero RHS should converge immediately: %+v", name, res)
		}
		if vec.Nrm2(x) != 0 {
			t.Fatalf("%s: solution should stay zero", name)
		}
	}
}

func TestCGIndefiniteDetection(t *testing.T) {
	// An indefinite matrix breaks the pAp > 0 invariant; CG and
	// Flexible-CG must stop at once, not converged, rather than diverge
	// silently.
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	a := coo.ToCSR()
	b := []float64{0, 1}
	for name, start := range map[string]func(x []float64) step{
		"cg":  func(x []float64) step { return NewCG(a, x, b, 0) },
		"fcg": func(x []float64) step { return NewFCG(a, x, b, nil, 0) },
	} {
		x := make([]float64, 2)
		if res := solve(t, start(x), 1e-12, 10); res.Converged || res.Done != 0 || res.Residual != 1 {
			t.Fatalf("%s: indefinite system should stop unconverged after no step: %+v", name, res)
		}
		if math.IsNaN(x[0]) || math.IsNaN(x[1]) {
			t.Fatalf("%s: iterate must stay finite", name)
		}
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
	const round, maxSweeps, tol = 40, 4000, 1e-3
	aj := NewAsyncJacobi(context.Background(), a, invDiag(a), x, b, 4, nil)
	res, err := outer.Run(context.Background(), tol, maxSweeps, round, aj.Step, aj.Residual)
	if err != nil || !res.Converged {
		t.Fatalf("async Jacobi: %+v, %v after up to %d sweeps", res, err, maxSweeps)
	}
	if e := vec.RelErr(x, want); e > 1e-2 {
		t.Fatalf("async Jacobi error %v", e)
	}
}

func TestAsyncJacobiSingleWorkerIsGaussSeidelLike(t *testing.T) {
	// One worker, one block: the update is exactly forward Gauss–Seidel.
	a := spd(t, 40, 35)
	b := workload.RandomRHS(40, 36)
	inv := invDiag(a)
	x1 := make([]float64, 40)
	NewAsyncJacobi(context.Background(), a, inv, x1, b, 1, nil).Step(5)
	x2 := make([]float64, 40)
	solve(t, NewGaussSeidel(a, inv, x2, b), 0, 5)
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
	aj := NewAsyncJacobi(context.Background(), a, invDiag(a), x, b, 4, func(w, i int) {
		if w == 0 {
			slowCalls++ // just count; heavy sleeps would slow the suite
		}
	})
	aj.Step(20)
	if slowCalls == 0 {
		t.Fatal("throttle was never invoked for worker 0")
	}
	if res := aj.Residual(); res >= 1 {
		t.Fatalf("async Jacobi made no progress: %v", res)
	}
}

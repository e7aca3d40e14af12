package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/outer"
	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func testSPD(t *testing.T, n int, seed uint64) *sparse.CSR {
	t.Helper()
	return workload.RandomSPD(n, 6, 1.5, seed)
}

// solveTo drives s through outer.Run to tol within maxSweeps, measuring
// every every sweeps (the registry's asyrgs methods run the same loop),
// and fails the test unless the solve converged.
func solveTo(t *testing.T, s *Solver, x, b []float64, tol float64, maxSweeps, every int) outer.Progress {
	t.Helper()
	p, err := outer.Run(context.Background(), tol, maxSweeps, every,
		func(k int) int { s.AsyncSweeps(x, b, k); return k },
		func() float64 { return s.Residual(x, b) })
	if err != nil || !p.Converged {
		t.Fatalf("did not converge: %+v, %v", p, err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	rect := sparse.NewCOO(2, 3).ToCSR()
	if _, err := New(rect, Options{}); !errors.Is(err, ErrNotSquare) {
		t.Fatalf("want ErrNotSquare, got %v", err)
	}
	zero := sparse.NewCOO(2, 2)
	zero.Add(0, 0, 1)
	if _, err := New(zero.ToCSR(), Options{}); !errors.Is(err, ErrZeroDiagonal) {
		t.Fatalf("want ErrZeroDiagonal, got %v", err)
	}
	ok := sparse.Identity(3)
	if _, err := New(ok, Options{Beta: 2.5}); err == nil {
		t.Fatal("β outside (0,2) must be rejected")
	}
	if _, err := New(ok, Options{Beta: math.NaN()}); err == nil {
		t.Fatal("β = NaN must be rejected")
	}
	if _, err := New(ok, Options{Workers: -1}); err == nil {
		t.Fatal("negative workers must be rejected")
	}
	s, err := New(ok, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.beta != 1 {
		t.Fatal("default β must be 1")
	}
}

func TestSweepsMatchesHandRolledIteration(t *testing.T) {
	// Golden trajectory: replicate Algorithm 1 independently and compare
	// the iterates update-for-update.
	a := testSPD(t, 20, 1)
	b := workload.RandomRHS(20, 2)
	s, err := New(a, Options{Seed: 77, Beta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	s.Sweeps(x, b, 3)

	// Reference: same stream, same update rule.
	ref := make([]float64, 20)
	stream := rng.NewStream(77)
	diag := a.Diag()
	invD := make([]float64, 20)
	for i, d := range diag {
		invD[i] = 1 / d
	}
	for j := uint64(0); j < 60; j++ {
		r := stream.IntnAt(j, 20)
		gamma := (b[r] - a.RowDot(r, ref)) * invD[r]
		ref[r] += 0.8 * gamma
	}
	if !vec.Equal(x, ref, 0) {
		t.Fatal("Sweeps diverged from the hand-rolled Algorithm 1")
	}
}

func TestSweepsConvergesToDirectSolution(t *testing.T) {
	a := testSPD(t, 40, 3)
	b := workload.RandomRHS(40, 4)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(a, Options{Seed: 5})
	x := make([]float64, 40)
	if res := solveTo(t, s, x, b, 1e-10, 2000, 10); res.Residual > 1e-10 {
		t.Fatalf("bad result %+v", res)
	}
	if e := vec.RelErr(x, want); e > 1e-8 {
		t.Fatalf("solution error %v vs direct solve", e)
	}
}

func TestSweepsDenseMatchesPerColumn(t *testing.T) {
	// Each column of a multi-RHS solve must equal the single-RHS solve
	// with the same direction stream (directions are shared).
	a := testSPD(t, 15, 9)
	const c = 3
	bblk := workload.MultiRHS(15, c, 31)
	sBlk, _ := New(a, Options{Seed: 123})
	xblk := vec.NewDense(15, c)
	sBlk.SweepsDense(xblk, bblk, 5)

	for j := 0; j < c; j++ {
		bj := make([]float64, 15)
		bblk.Col(bj, j)
		sj, _ := New(a, Options{Seed: 123})
		xj := make([]float64, 15)
		sj.Sweeps(xj, bj, 5)
		for i := 0; i < 15; i++ {
			if math.Abs(xblk.At(i, j)-xj[i]) > 1e-13 {
				t.Fatalf("col %d row %d: block %v single %v", j, i, xblk.At(i, j), xj[i])
			}
		}
	}
}

func TestSweepsContinuesDirectionStream(t *testing.T) {
	// Two calls of k sweeps must equal one call of 2k sweeps: the
	// iteration counter persists across calls.
	a := testSPD(t, 12, 4)
	b := workload.RandomRHS(12, 8)
	s1, _ := New(a, Options{Seed: 6})
	x1 := make([]float64, 12)
	s1.Sweeps(x1, b, 4)

	s2, _ := New(a, Options{Seed: 6})
	x2 := make([]float64, 12)
	s2.Sweeps(x2, b, 2)
	s2.Sweeps(x2, b, 2)
	if !vec.Equal(x1, x2, 0) {
		t.Fatal("split sweeps diverged from contiguous sweeps")
	}
	if s1.Iterations() != s2.Iterations() {
		t.Fatal("iteration counters disagree")
	}
	s2.Reset()
	if s2.Iterations() != 0 {
		t.Fatal("Reset must rewind the stream")
	}
}

func TestAsyncSingleWorkerEqualsSync(t *testing.T) {
	a := testSPD(t, 25, 8)
	b := workload.RandomRHS(25, 9)
	sync, _ := New(a, Options{Seed: 2})
	xs := make([]float64, 25)
	sync.Sweeps(xs, b, 6)

	async, _ := New(a, Options{Seed: 2, Workers: 1})
	xa := make([]float64, 25)
	async.AsyncSweeps(xa, b, 6)
	if !vec.Equal(xs, xa, 0) {
		t.Fatal("Workers=1 async must reduce to the synchronous iteration")
	}
}

func TestAsyncSweepsConverges(t *testing.T) {
	a := testSPD(t, 300, 10)
	b := workload.RandomRHS(300, 11)
	s, _ := New(a, Options{Seed: 3, Workers: 8, MeasureDelay: true})
	x := make([]float64, 300)
	solveTo(t, s, x, b, 1e-8, 500, 5)
	if tau := s.ObservedTau(); tau < 0 || uint64(tau) > s.Iterations() {
		t.Fatalf("nonsense τ̂ = %d", tau)
	}
}

func TestAsyncNonAtomicConverges(t *testing.T) {
	if race.Enabled {
		t.Skip("the NonAtomic ablation races by design (paper §9)")
	}
	// The paper's non-atomic ablation: no convergence theorem, but it
	// must still work in practice on a diagonally dominant system.
	a := testSPD(t, 200, 12)
	b := workload.RandomRHS(200, 13)
	s, _ := New(a, Options{Seed: 4, Workers: 4, NonAtomic: true})
	x := make([]float64, 200)
	solveTo(t, s, x, b, 1e-6, 500, 5)
}

func TestAsyncWithSyncPeriodConverges(t *testing.T) {
	a := testSPD(t, 200, 14)
	b := workload.RandomRHS(200, 15)
	s, _ := New(a, Options{Seed: 5, Workers: 4, SyncPeriod: 200})
	x := make([]float64, 200)
	solveTo(t, s, x, b, 1e-6, 500, 5)
}

// TestAsyncDenseConverges asserts convergence to tolerance, not within
// a fixed sweep count. With more workers than CPUs, a worker descheduled
// between its read and its write lands one arbitrarily stale update: an
// unbounded τ, outside the theorem's regime. Later sweeps correct it, so
// the test steps 20 sweeps at a time until the residual meets the bound,
// capped at 800 sweeps.
func TestAsyncDenseConverges(t *testing.T) {
	a := testSPD(t, 150, 16)
	const c = 4
	b := workload.MultiRHS(150, c, 17)
	s, _ := New(a, Options{Seed: 6, Workers: 4})
	x := vec.NewDense(150, c)
	const step, maxSweeps, tol = 20, 800, 1e-4
	res := math.Inf(1)
	for sweeps := 0; sweeps < maxSweeps && res > tol; sweeps += step {
		s.AsyncSweepsDense(x, b, step)
		res = s.ResidualDense(x, b)
	}
	if res > tol {
		t.Fatalf("multi-RHS async residual %v after %d sweeps", res, maxSweeps)
	}
	// Each column should agree with an independent solve to similar
	// accuracy (not exactly — interleaving differs).
	for j := 0; j < c; j++ {
		bj := make([]float64, 150)
		b.Col(bj, j)
		want, err := dense.SolveCSR(a, bj)
		if err != nil {
			t.Fatal(err)
		}
		xj := make([]float64, 150)
		x.Col(xj, j)
		if e := vec.RelErr(xj, want); e > 1e-3 {
			t.Fatalf("column %d error %v", j, e)
		}
	}
}

func TestAsyncDenseSingleWorkerEqualsSyncDense(t *testing.T) {
	a := testSPD(t, 30, 18)
	b := workload.MultiRHS(30, 2, 19)
	s1, _ := New(a, Options{Seed: 7})
	x1 := vec.NewDense(30, 2)
	s1.SweepsDense(x1, b, 4)
	s2, _ := New(a, Options{Seed: 7, Workers: 1})
	x2 := vec.NewDense(30, 2)
	s2.AsyncSweepsDense(x2, b, 4)
	if !vec.Equal(x1.Data, x2.Data, 0) {
		t.Fatal("Workers=1 dense async must match sync")
	}
}

func TestErrorMonotonicityInExpectation(t *testing.T) {
	// E‖x_m − x*‖²_A decreases per sweep in expectation; averaged over
	// seeds the measured trajectory must be decreasing across sweeps.
	a := testSPD(t, 60, 20)
	bRHS, xstar := workload.RHSForSolution(a, 21)
	const seeds = 12
	const sweeps = 6
	avg := make([]float64, sweeps+1)
	for sd := uint64(0); sd < seeds; sd++ {
		s, _ := New(a, Options{Seed: 100 + sd})
		x := make([]float64, 60)
		e := a.ANormErr(x, xstar)
		avg[0] += e * e
		for k := 1; k <= sweeps; k++ {
			s.Sweeps(x, bRHS, 1)
			e := a.ANormErr(x, xstar)
			avg[k] += e * e
		}
	}
	for k := 1; k <= sweeps; k++ {
		if avg[k] > avg[k-1] {
			t.Fatalf("average squared A-norm error rose at sweep %d: %v -> %v", k, avg[k-1], avg[k])
		}
	}
}

func TestBetaSweepProperty(t *testing.T) {
	// Any β in (0,2) must converge on an SPD system (eq. 2's guarantee).
	f := func(betaRaw uint8) bool {
		beta := 0.1 + 1.8*float64(betaRaw)/255*0.9 // (0.1, ~1.72)
		a := testSPD(t, 30, 22)
		b := workload.RandomRHS(30, 23)
		s, err := New(a, Options{Seed: 24, Beta: beta})
		if err != nil {
			return false
		}
		x := make([]float64, 30)
		before := s.Residual(x, b)
		s.Sweeps(x, b, 60)
		return s.Residual(x, b) < before*0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionReducesResidual(t *testing.T) {
	a := testSPD(t, 100, 26)
	r := workload.RandomRHS(100, 27)
	s, _ := New(a, Options{Seed: 28, Workers: 2})
	z := make([]float64, 100)
	s.Precondition(z, r, 5)
	// z ≈ A⁻¹ r, so ‖r − Az‖ should be well below ‖r‖.
	az := make([]float64, 100)
	a.MulVec(az, z)
	vec.Sub(az, r, az)
	if vec.Nrm2(az) > 0.5*vec.Nrm2(r) {
		t.Fatalf("preconditioner too weak: %v vs %v", vec.Nrm2(az), vec.Nrm2(r))
	}
}

func TestResidualZeroRHS(t *testing.T) {
	a := sparse.Identity(4)
	s, _ := New(a, Options{})
	x := []float64{1, 0, 0, 0}
	if got := s.Residual(x, make([]float64, 4)); math.Abs(got-1) > 1e-15 {
		t.Fatalf("Residual with zero b should be absolute: %v", got)
	}
}

func TestGeneralDiagonalEquivalence(t *testing.T) {
	// §3 Non-Unit Diagonal: running iteration (3) on B directly must give
	// y_j = D·x_j where x_j runs iteration (1) on A = D·B·D with RHS D·z,
	// using the same directions.
	b := testSPD(t, 18, 32)
	a, sc, err := sparse.UnitDiagonalScale(b)
	if err != nil {
		t.Fatal(err)
	}
	z := workload.RandomRHS(18, 33)

	sb, _ := New(b, Options{Seed: 55})
	y := make([]float64, 18)
	sb.Sweeps(y, z, 4)

	sa, _ := New(a, Options{Seed: 55})
	x := make([]float64, 18)
	dz := sc.RHSToUnit(z)
	sa.Sweeps(x, dz, 4)
	yFromX := sc.SolutionFromUnit(x)
	for i := range y {
		if math.Abs(y[i]-yFromX[i]) > 1e-11 {
			t.Fatalf("diagonal equivalence broken at %d: %v vs %v", i, y[i], yFromX[i])
		}
	}
}

package asyrgs_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	asyrgs "github.com/asynclinalg/asyrgs"
)

// solveWith runs a registry method on A·x = b from zero and returns x.
func solveWith(t *testing.T, name string, a *asyrgs.Matrix, b []float64, opts asyrgs.MethodOpts) ([]float64, asyrgs.MethodResult) {
	t.Helper()
	m, err := asyrgs.GetMethod(name)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	res, err := m.Solve(context.Background(), a, b, x, opts)
	if err != nil || !res.Converged {
		t.Fatalf("%s failed: %+v %v", name, res, err)
	}
	return x, res
}

// TestFacadeEndToEnd exercises the full public API surface the way a
// downstream user would: generate, solve to a tolerance through the
// registry with AsyRGS, CG and FCG preconditioned by AsyRGS, and
// cross-check.
func TestFacadeEndToEnd(t *testing.T) {
	a := asyrgs.RandomSPD(200, 6, 1.5, 1)
	b, xstar := asyrgs.RHSForSolution(a, 2)

	x, _ := solveWith(t, "asyrgs", a, b, asyrgs.MethodOpts{Tol: 1e-8, MaxSweeps: 500, CheckEvery: 5, Workers: runtime.GOMAXPROCS(0), Seed: 3})
	xcg, _ := solveWith(t, "cg", a, b, asyrgs.MethodOpts{Tol: 1e-10, MaxSweeps: 2000})
	xf, _ := solveWith(t, "fcg", a, b, asyrgs.MethodOpts{Tol: 1e-8, MaxSweeps: 2000, Workers: 2, Seed: 4, Inner: 2})

	// All three solutions agree with x*.
	for name, sol := range map[string][]float64{"asyrgs": x, "cg": xcg, "fcg": xf} {
		var worst float64
		for i := range sol {
			if d := sol[i] - xstar[i]; d > worst || -d > worst {
				if d < 0 {
					d = -d
				}
				worst = d
			}
		}
		if worst > 1e-4 {
			t.Fatalf("%s max error %v", name, worst)
		}
	}
}

func TestFacadeScalingAndTheory(t *testing.T) {
	g, _ := asyrgs.SocialGram(asyrgs.DefaultSocialGram(150, 5))
	a, sc, err := asyrgs.UnitDiagonalScale(g)
	if err != nil {
		t.Fatal(err)
	}
	if sc == nil || len(sc.D) != 150 {
		t.Fatal("scaling missing")
	}
	est := asyrgs.EstimateSpectrum(a, 60, 6)
	if est.LambdaMin <= 0 || est.Cond < 1 {
		t.Fatalf("bad spectral estimate %+v", est)
	}
	rho := asyrgs.Rho(a)
	if rho <= 0 || asyrgs.Rho2(a) <= 0 {
		t.Fatal("interference parameters must be positive")
	}
	beta := asyrgs.OptimalBeta(rho, 8)
	if beta <= 0 || beta > 1 {
		t.Fatalf("β̃ = %v", beta)
	}
	p := asyrgs.NewBoundParams(a, est.LambdaMin, est.LambdaMax, 8, beta)
	if _, ok := p.ConsistentEpochFactor(); !ok {
		t.Log("bound vacuous at this size (allowed); parameters:", p)
	}
}

func TestFacadeSimulator(t *testing.T) {
	lap := asyrgs.Laplacian2D(8, 8)
	a, _, err := asyrgs.UnitDiagonalScale(lap)
	if err != nil {
		t.Fatal(err)
	}
	b, xstar := asyrgs.RHSForSolution(a, 7)
	x0 := make([]float64, a.Rows)
	tr := asyrgs.SimulateConsistent(a, b, x0, xstar, 20*a.Rows, asyrgs.FixedDelay{T: 3}, asyrgs.SimConfig{Seed: 8, Beta: 0.8})
	if tr.Errors[len(tr.Errors)-1] >= tr.Errors[0] {
		t.Fatal("simulated run made no progress")
	}
}

// TestFacadeLeastSquaresAndKaczmarz: the §8 coordinate descent runs fixed
// work through an LSQSolver and to a tolerance through the registry, as
// does randomized Kaczmarz.
func TestFacadeLeastSquaresAndKaczmarz(t *testing.T) {
	a := asyrgs.RandomOverdetermined(120, 30, 4, 9)
	b := asyrgs.RandomRHS(120, 10)
	ls, err := asyrgs.NewLSQ(a, asyrgs.LSQOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 30)
	before := ls.LSQResidual(x, b)
	ls.Iterations(x, b, 100*30)
	if after := ls.LSQResidual(x, b); !(after < 1e-3*before) {
		t.Fatalf("100 lsq sweeps took the normal residual from %v to %v", before, after)
	}
	solveWith(t, "lsqcd", a, b, asyrgs.MethodOpts{Tol: 1e-8, MaxSweeps: 60_000, Seed: 11})

	sq := asyrgs.RandomSPD(60, 4, 1.5, 12)
	bq, _ := asyrgs.RHSForSolution(sq, 13)
	if _, err := asyrgs.NewKaczmarz(sq, asyrgs.KaczmarzOptions{Seed: 14}); err != nil {
		t.Fatal(err)
	}
	solveWith(t, "kaczmarz", sq, bq, asyrgs.MethodOpts{Tol: 1e-8, MaxSweeps: 16_000, Seed: 14})
}

func TestFacadeMatrixMarketRoundTrip(t *testing.T) {
	a := asyrgs.RandomSPD(20, 4, 1.5, 15)
	var buf bytes.Buffer
	if err := asyrgs.WriteMatrixMarketSymmetric(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := asyrgs.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() || back.Rows != 20 {
		t.Fatalf("round trip changed matrix: nnz %d vs %d", back.NNZ(), a.NNZ())
	}
}

func TestFacadeBuilders(t *testing.T) {
	bld := asyrgs.NewBuilder(2, 2)
	bld.AddSym(0, 1, -1)
	bld.Add(0, 0, 2)
	bld.Add(1, 1, 2)
	m := bld.ToCSR()
	if m.NNZ() != 4 {
		t.Fatalf("builder produced %d entries", m.NNZ())
	}
	id := asyrgs.Identity(3)
	if id.At(2, 2) != 1 {
		t.Fatal("identity broken")
	}
	d := asyrgs.NewDense(2, 3)
	if d.Rows != 2 || d.Cols != 3 {
		t.Fatal("dense block broken")
	}
	if asyrgs.DescribeMatrix("m", m) == "" {
		t.Fatal("describe broken")
	}
}

func TestFacadeStationary(t *testing.T) {
	a := asyrgs.RandomSPD(40, 4, 1.6, 16)
	b := asyrgs.RandomRHS(40, 17)
	solveWith(t, "jacobi", a, b, asyrgs.MethodOpts{Tol: 1e-8, MaxSweeps: 300, Workers: 2})
	solveWith(t, "gs", a, b, asyrgs.MethodOpts{Tol: 1e-8, MaxSweeps: 300})
}

func TestFacadeGuaranteeAndDelayHistogram(t *testing.T) {
	lap := asyrgs.Laplacian2D(12, 12)
	a, _, err := asyrgs.UnitDiagonalScale(lap)
	if err != nil {
		t.Fatal(err)
	}
	b, xstar := asyrgs.RHSForSolution(a, 20)
	s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: 4, Seed: 21, MeasureDelay: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	e0 := a.ANormErr(x, xstar)
	g, err := s.SolveWithGuarantee(x, b, 0.1, 0.1, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epochs < 1 {
		t.Fatalf("bad guarantee %+v", g)
	}
	if e := a.ANormErr(x, xstar); e > 0.1*e0 {
		t.Fatalf("certificate not met: %v > %v", e, 0.1*e0)
	}
	h := asyrgs.DelayHistogram{Counts: s.DelayHistogram()}
	if h.Total() == 0 {
		t.Fatal("delay histogram empty despite MeasureDelay")
	}
}

func TestFacadeAsyncJacobi(t *testing.T) {
	a := asyrgs.RandomSPD(100, 4, 1.6, 22)
	b := asyrgs.RandomRHS(100, 23)
	m, err := asyrgs.GetMethod("asyncjacobi")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	// Chaotic relaxation's rate depends on the scheduler's interleaving,
	// which degrades under machine load; assert solid progress over a
	// fixed 300 sweeps rather than a tight constant.
	res, err := m.Solve(context.Background(), a, b, x, asyrgs.MethodOpts{MaxSweeps: 300, Workers: 4})
	if err != nil || res.Residual > 1e-2 {
		t.Fatalf("async Jacobi residual %v, %v", res.Residual, err)
	}
}

func TestFacadeGeometricDelaySimulation(t *testing.T) {
	lap := asyrgs.Laplacian2D(8, 8)
	a, _, err := asyrgs.UnitDiagonalScale(lap)
	if err != nil {
		t.Fatal(err)
	}
	b, xstar := asyrgs.RHSForSolution(a, 25)
	x0 := make([]float64, a.Rows)
	tr := asyrgs.SimulateInconsistent(a, b, x0, xstar, 30*a.Rows,
		asyrgs.GeometricDelay{T: 8, P0: 0.5, Seed: 26},
		asyrgs.SimConfig{Seed: 27, Beta: 0.7})
	if tr.Errors[len(tr.Errors)-1] >= tr.Errors[0] {
		t.Fatal("geometric-delay simulation made no progress")
	}
}

// TestFacadeVariantOptions: the partitioned and diagonal-weighted
// variants solve through the registry; a Solver with a SyncPeriod (the
// occasional-synchronization barriers, which the registry does not set)
// runs fixed sweeps.
func TestFacadeVariantOptions(t *testing.T) {
	a := asyrgs.RandomSPD(120, 4, 1.5, 28)
	b := asyrgs.RandomRHS(120, 29)
	solveWith(t, "asyrgs-partitioned", a, b, asyrgs.MethodOpts{Tol: 1e-6, MaxSweeps: 1000, CheckEvery: 10, Workers: 4, Seed: 30})
	solveWith(t, "asyrgs-weighted", a, b, asyrgs.MethodOpts{Tol: 1e-6, MaxSweeps: 1000, CheckEvery: 10, Workers: 4, Seed: 31})

	s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: 4, Seed: 32, SyncPeriod: 120})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 120)
	s.AsyncSweeps(x, b, 100)
	if res := s.Residual(x, b); res > 1e-6 {
		t.Fatalf("100 sweeps with SyncPeriod 120 left residual %v", res)
	}
}

func TestFacadeDistributedSolve(t *testing.T) {
	a := asyrgs.RandomSPD(150, 4, 1.5, 40)
	b := asyrgs.RandomRHS(150, 41)
	_, res := solveWith(t, "asyrgs-distmem", a, b, asyrgs.MethodOpts{
		Tol: 1e-7, MaxSweeps: 500, CheckEvery: 10, Workers: 4, QueueCap: 8, Seed: 42,
	})
	if res.Messages == 0 {
		t.Fatal("distributed run must communicate")
	}
}

// TestFacadeMethodRegistry exercises the unified method registry through
// the root re-exports: lookup, kind filtering, a cancellable solve, and
// custom registration.
func TestFacadeMethodRegistry(t *testing.T) {
	names := asyrgs.MethodNames()
	if len(names) < 10 {
		t.Fatalf("registry unexpectedly small: %v", names)
	}
	if _, err := asyrgs.GetMethod("no-such"); !errors.Is(err, asyrgs.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}

	a := asyrgs.RandomSPD(150, 5, 1.5, 31)
	b, xstar := asyrgs.RHSForSolution(a, 32)
	for _, name := range []string{"asyrgs", "cg", "fcg"} {
		m, err := asyrgs.GetMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind() != asyrgs.MethodSPD {
			t.Fatalf("%s misclassified as %v", name, m.Kind())
		}
		x := make([]float64, 150)
		res, err := m.Solve(context.Background(), a, b, x, asyrgs.MethodOpts{
			Tol: 1e-8, MaxSweeps: 2000, Workers: 2, XStar: xstar,
		})
		if err != nil || !res.Converged {
			t.Fatalf("%s failed: %+v %v", name, res, err)
		}
		if res.ANormErr > 1e-4 {
			t.Fatalf("%s: A-norm error %v too large", name, res.ANormErr)
		}
	}

	// A cancelled context stops a registry method with a wrapped error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _ := asyrgs.GetMethod("rgs")
	x := make([]float64, 150)
	if _, err := m.Solve(ctx, a, b, x, asyrgs.MethodOpts{Tol: 1e-30, MaxSweeps: 1 << 20}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}

	if len(asyrgs.MethodsByKind(asyrgs.MethodLeastSquares)) < 2 {
		t.Fatal("least-squares methods missing from the registry")
	}
}

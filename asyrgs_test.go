package asyrgs_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	asyrgs "github.com/asynclinalg/asyrgs"
)

// TestFacadeEndToEnd exercises the full public API surface the way a
// downstream user would: generate, scale, estimate, solve with every
// exported method, and cross-check.
func TestFacadeEndToEnd(t *testing.T) {
	a := asyrgs.RandomSPD(200, 6, 1.5, 1)
	b, xstar := asyrgs.RHSForSolution(a, 2)

	// AsyRGS.
	s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: runtime.GOMAXPROCS(0), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	res, err := s.SolveAsync(x, b, 1e-8, 500, 5)
	if err != nil || !res.Converged {
		t.Fatalf("AsyRGS failed: %+v %v", res, err)
	}

	// CG.
	xcg := make([]float64, 200)
	cgRes, err := asyrgs.CG(a, xcg, b, asyrgs.CGOptions{Tol: 1e-10, MaxIter: 2000})
	if err != nil || !cgRes.Converged {
		t.Fatalf("CG failed: %+v %v", cgRes, err)
	}

	// FCG with AsyRGS preconditioner.
	sp, _ := asyrgs.NewSolver(a, asyrgs.Options{Workers: 2, Seed: 4})
	pre := asyrgs.PrecondFunc(func(z, r []float64) { sp.Precondition(z, r, 2) })
	xf := make([]float64, 200)
	fres, err := asyrgs.FlexibleCG(a, xf, b, pre, asyrgs.FCGOptions{Tol: 1e-8, MaxIter: 2000})
	if err != nil || !fres.Converged {
		t.Fatalf("FCG failed: %+v %v", fres, err)
	}

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

func TestFacadeLeastSquaresAndKaczmarz(t *testing.T) {
	a := asyrgs.RandomOverdetermined(120, 30, 4, 9)
	b := asyrgs.RandomRHS(120, 10)
	ls, err := asyrgs.NewLSQ(a, asyrgs.LSQOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 30)
	if _, res, err := ls.Solve(x, b, 1e-8, 2_000_000, 3000); err != nil {
		t.Fatalf("lsq failed: res=%v err=%v", res, err)
	}

	sq := asyrgs.RandomSPD(60, 4, 1.5, 12)
	bq, _ := asyrgs.RHSForSolution(sq, 13)
	kz, err := asyrgs.NewKaczmarz(sq, asyrgs.KaczmarzOptions{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	xk := make([]float64, 60)
	if _, res, err := kz.Solve(xk, bq, 1e-8, 1_000_000, 5000); err != nil {
		t.Fatalf("kaczmarz failed: res=%v err=%v", res, err)
	}
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
	xj := make([]float64, 40)
	if res := asyrgs.Jacobi(a, xj, b, 300, 1e-8, 2); !res.Converged {
		t.Fatalf("Jacobi: %+v", res)
	}
	xg := make([]float64, 40)
	if res := asyrgs.GaussSeidel(a, xg, b, 300, 1e-8); !res.Converged {
		t.Fatalf("GaussSeidel: %+v", res)
	}
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
	x := make([]float64, 100)
	// Chaotic relaxation's rate depends on the scheduler's interleaving,
	// which degrades under machine load; assert solid progress rather
	// than a tight constant.
	res := asyrgs.AsyncJacobi(a, x, b, 300, 4)
	if res.Residual > 1e-2 {
		t.Fatalf("async Jacobi residual %v", res.Residual)
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

func TestFacadeVariantOptions(t *testing.T) {
	a := asyrgs.RandomSPD(120, 4, 1.5, 28)
	b := asyrgs.RandomRHS(120, 29)
	for _, opts := range []asyrgs.Options{
		{Workers: 4, Seed: 30, Partitioned: true},
		{Workers: 4, Seed: 31, DiagonalWeighted: true},
		{Workers: 4, Seed: 32, SyncPeriod: 120},
	} {
		s, err := asyrgs.NewSolver(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 120)
		if res, err := s.SolveAsync(x, b, 1e-6, 1000, 10); err != nil {
			t.Fatalf("options %+v did not converge: %+v", opts, res)
		}
	}
}

func TestFacadeDistributedSolve(t *testing.T) {
	a := asyrgs.RandomSPD(150, 4, 1.5, 40)
	b := asyrgs.RandomRHS(150, 41)
	x := make([]float64, 150)
	res, rounds, err := asyrgs.DistSolveToTol(a, x, b, 1e-7, 10, 50,
		asyrgs.DistConfig{Workers: 4, QueueCap: 8, Seed: 42})
	if err != nil {
		t.Fatalf("after %d rounds: %v (%+v)", rounds, err, res)
	}
	if res.MessagesSent == 0 {
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

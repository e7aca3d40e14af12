// Tests of the krylov baselines as the registry drives them: cg, fcg,
// jacobi, gs and asyncjacobi advance one step per call under outer.Run,
// which alone decides when a solve stops.
package method_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// digest is the SHA-256 of x's float64 bits, little-endian.
func digest(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// stepSystems are the pinned solves' matrices.
func stepSystems() map[string]*sparse.CSR {
	gram, _ := workload.SocialGram(workload.DefaultSocialGram(300, 1))
	return map[string]*sparse.CSR{
		"laplacian2d": workload.Laplacian2D(12, 12),
		"randomspd":   workload.RandomSPD(300, 6, 1.5, 5),
		"socialgram":  gram,
	}
}

// pinnedStepSolves were computed when cg, fcg, jacobi and gs still
// stopped in their own loops: the sweeps, the residual's bits and the
// digest of x. b = RandomRHS(n, 11); 2 workers (1 for fcg, whose AsyRGS
// preconditioner is then deterministic) and seed 3; tol 1e-8 at the
// default budget, or fixed work of 7 sweeps. jacobi on socialgram at
// 1e-8 diverges; TestDivergedSolveStopsAtItsFirstNonFiniteResidual
// covers it.
var pinnedStepSolves = []struct {
	system, method string
	tol            float64
	sweeps         int
	residual       uint64
	x              string
}{
	{"laplacian2d", "cg", 1e-08, 39, 0x3e3aa3cdb424946b, "8595d28427839327a75fbd1eaa41182cb469aabd7babdc4c44a130c633c862a3"},
	{"laplacian2d", "fcg", 1e-08, 39, 0x3e27c7ab3f01e867, "63b36b7bbe09c68d096df497291596533435a848354c676f00f5563cc2a33f8b"},
	{"laplacian2d", "jacobi", 1e-08, 563, 0x3e451f5a0473451b, "086863018716c1b232c48a08404395c8073d81564566682aa062d977e105e64f"},
	{"laplacian2d", "gs", 1e-08, 272, 0x3e44e5006052962e, "c7036f216687abf6722da94c0be7dd79a0303909353489df54033f0f44f0b7d2"},
	{"randomspd", "cg", 1e-08, 27, 0x3e370a2bafbdea9d, "fd1d6de98fbd182467f2f9256430bb578ffc3640956f413cf294f52c747f7115"},
	{"randomspd", "fcg", 1e-08, 17, 0x3e3a7346949bcc57, "9b3e6f436269fa97cdd3cf1c7222865c59e3fccab21ca6367370fde3c74b1961"},
	{"randomspd", "jacobi", 1e-08, 22, 0x3e44d5e84b8c9adb, "4796aab65a3fc2272fd82da7bbd3518ac8c5d23b5a58037565685e8c86f0b763"},
	{"randomspd", "gs", 1e-08, 13, 0x3e24c68e198c943f, "77d877ed140db54498dbb793807dd0cb883d9506f0f3a2263867291bd3fce0c5"},
	{"socialgram", "cg", 1e-08, 83, 0x3e4137f462a1e039, "5170ad57e2ba6119101bfdc429e0af28748f8d2f0764a37b26745d28fd86a369"},
	{"socialgram", "fcg", 1e-08, 36, 0x3e38a9ec7aa8e085, "d35227c516e9856b84e14f6ae59a718b7b794aaaf032213aa05679613c4cb859"},
	{"socialgram", "gs", 1e-08, 197, 0x3e451a83fb10f586, "3e9b2d360dcfe99ba2ecb7f880a85f8e0ff70e2f181226ab57086d8f3f787255"},
	{"laplacian2d", "cg", 0, 7, 0x3fc0f5a245eb7f4a, "93ee16e70a2572b786ec3f801a72845c673203bd56a17703ef3947b0d931bb01"},
	{"laplacian2d", "fcg", 0, 7, 0x3fb720c4dceb9114, "88d841ec1657072952d3d6749767d36d9119f60062ff5c9f5fbd60ae3bf25484"},
	{"laplacian2d", "jacobi", 0, 7, 0x3fc53ce4d66b03e6, "ad152123f338c9172bfbf466f9bfb231285d708def54ff59efb02e87bc5319f6"},
	{"laplacian2d", "gs", 0, 7, 0x3fb2e957f65b905d, "7e3854a8f64f8bab8229cafdd8bce32a9d972c7a9e195ff9cf36a3d4beca3254"},
	{"randomspd", "cg", 0, 7, 0x3f7c0a8b65eb854d, "2421aeefd3f098ace0e854fec9956e25d2abe03a91a2e9caf82e071070ee85f4"},
	{"randomspd", "fcg", 0, 7, 0x3f365a4c525d2eca, "96252c9d04ad54ac3fe5c68073c8e866946a741636985a5b9d5bbb930bcf1e14"},
	{"randomspd", "jacobi", 0, 7, 0x3f53262a599118c4, "3037fa6c36e601371890db81b91f363fe81f08499f9f731ef6ea773f9400632f"},
	{"randomspd", "gs", 0, 7, 0x3ef13206cb4fe5d2, "b1da5ad8a05997fe09c2f53dae59a049b96cf4da3a3c56c18300824ea7c3f035"},
	{"socialgram", "cg", 0, 7, 0x3fe0f325065d0119, "baecc4372887f8bda2163b5f9fb5dd010dce9f2ef1784ae7b5db1696b057c460"},
	{"socialgram", "fcg", 0, 7, 0x3fab18ad8ba6b7bf, "7941c72f86f3ff382fc40740a6a47fbb180390ad2298eeb419ca6d8a9a386566"},
	{"socialgram", "jacobi", 0, 7, 0x4125d963866ca3ff, "b269ca282b91cffccc6a8a135255d44e21b053cde134229ad9b598bd135e1570"},
	{"socialgram", "gs", 0, 7, 0x3fcc5de5685d6850, "bf40b16dc8c7ca095432f73fd3fc748a090bee11aa34dfb5a686f32e693dc52b"},
}

// TestStepMethodsKeepTheirArithmetic: driven by outer.Run, cg, fcg,
// jacobi and gs return the same iterate, sweeps and residual, bit for
// bit, as their own loops did, and an explicit CheckEvery changes none of
// it. cg, fcg and jacobi form their residual inside the step and measure
// the initial guess and every step; gs, whose residual costs a product,
// measures every sweep while tol > 0 and once at fixed work.
func TestStepMethodsKeepTheirArithmetic(t *testing.T) {
	systems := stepSystems()
	for _, c := range pinnedStepSolves {
		for _, every := range []int{0, 5} {
			t.Run(fmt.Sprintf("%s/%s/tol=%g/check=%d", c.system, c.method, c.tol, every), func(t *testing.T) {
				m, err := method.Get(c.method)
				if err != nil {
					t.Fatal(err)
				}
				a := systems[c.system]
				b := workload.RandomRHS(a.Rows, 11)
				opts := method.Opts{Tol: c.tol, Workers: 2, Seed: 3, CheckEvery: every}
				if c.method == "fcg" {
					opts.Workers = 1
				}
				if c.tol == 0 {
					opts.MaxSweeps = 7
				}
				x := make([]float64, a.Rows)
				res, err := m.Solve(context.Background(), a, b, x, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Sweeps != c.sweeps || math.Float64bits(res.Residual) != c.residual || digest(x) != c.x {
					t.Fatalf("%d sweeps, residual %#016x, x %s; pinned %d, %#016x, %s",
						res.Sweeps, math.Float64bits(res.Residual), digest(x), c.sweeps, c.residual, c.x)
				}
				wantChecks := res.Sweeps + 1
				if c.method == "gs" {
					wantChecks = res.Sweeps
					if c.tol == 0 {
						wantChecks = 1
					}
				}
				if res.Checks != wantChecks || res.Converged != (c.tol > 0) {
					t.Fatalf("%d checks, converged %v; want %d, %v", res.Checks, res.Converged, wantChecks, c.tol > 0)
				}
			})
		}
	}
}

// TestSolvedGuessTakesNoStep: started from a guess that already meets
// tol, cg, fcg and jacobi measure it and stop with x untouched, as their
// own loops did; gs, which measured only after a sweep, still runs one.
func TestSolvedGuessTakesNoStep(t *testing.T) {
	a := workload.RandomSPD(60, 6, 1.5, 7)
	b, xstar := workload.RHSForSolution(a, 8)
	for _, c := range []struct {
		method string
		sweeps int
	}{{"cg", 0}, {"fcg", 0}, {"jacobi", 0}, {"gs", 1}} {
		t.Run(c.method, func(t *testing.T) {
			m, err := method.Get(c.method)
			if err != nil {
				t.Fatal(err)
			}
			x := append([]float64(nil), xstar...)
			res, err := m.Solve(context.Background(), a, b, x, method.Opts{Tol: 1e-8, Workers: 1})
			if err != nil || !res.Converged || res.Sweeps != c.sweeps || res.Checks != 1 {
				t.Fatalf("%+v, %v; want converged after %d sweeps, 1 check", res, err, c.sweeps)
			}
			if c.sweeps == 0 && digest(x) != digest(xstar) {
				t.Fatal("a solve that took no step changed x")
			}
		})
	}
}

// TestDivergedSolveStopsAtItsFirstNonFiniteResidual: jacobi diverges on
// the social Gram matrix. Its residual leaves the floats long before the
// default budget of 1000 sweeps, and the solve stops at that check with
// an error that wraps ErrNonFinite and names the method and the sweep.
func TestDivergedSolveStopsAtItsFirstNonFiniteResidual(t *testing.T) {
	a := stepSystems()["socialgram"]
	b := workload.RandomRHS(a.Rows, 11)
	m, err := method.Get("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	res, err := m.Solve(context.Background(), a, b, x, method.Opts{Tol: 1e-6, Workers: 1})
	if !errors.Is(err, method.ErrNonFinite) || errors.Is(err, method.ErrNotConverged) {
		t.Fatalf("err %v, want ErrNonFinite", err)
	}
	if res.Sweeps >= 200 || res.Checks != res.Sweeps+1 || res.Converged || !math.IsInf(res.Residual, 0) && !math.IsNaN(res.Residual) {
		t.Fatalf("%+v; want a non-finite residual within 200 sweeps, checks of the guess and every sweep", res)
	}
	if msg := err.Error(); !strings.Contains(msg, "jacobi") || !strings.Contains(msg, fmt.Sprintf("sweep %d", res.Sweeps)) {
		t.Fatalf("error %q should name the method and sweep %d", msg, res.Sweeps)
	}
}

// TestStationaryMethodsRejectAZeroDiagonal: jacobi, gs and asyncjacobi
// would never update a coordinate whose diagonal entry is zero; like the
// core family, they reject such a matrix at Prepare with core's error.
func TestStationaryMethodsRejectAZeroDiagonal(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 4)
	coo.AddSym(0, 1, 1)
	coo.AddSym(1, 2, 1)
	coo.Add(2, 2, 4)
	a := coo.ToCSR() // A₂₂ = 0
	const want = "core: matrix has a zero diagonal entry: row 1"
	for _, name := range []string{"jacobi", "gs", "asyncjacobi", "asyrgs"} {
		t.Run(name, func(t *testing.T) {
			m, err := method.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := method.Prepare(context.Background(), m, a, method.Opts{}); !errors.Is(err, core.ErrZeroDiagonal) || err.Error() != want {
				t.Fatalf("Prepare: %v, want %q", err, want)
			}
			x := make([]float64, 3)
			if _, err := m.Solve(context.Background(), a, []float64{1, 1, 1}, x, method.Opts{MaxSweeps: 200}); !errors.Is(err, core.ErrZeroDiagonal) {
				t.Fatalf("Solve: %v, want %q", err, want)
			}
		})
	}
}

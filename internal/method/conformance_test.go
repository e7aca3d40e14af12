// The registry-driven conformance suite: every registered SPD method
// must solve the same reference systems to tolerance and agree with CG's
// solution; every least-squares method must match the normal-equations
// solution. Registering a new method automatically enrols it here.
package method_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// sweepBudgets gives slowly-converging methods room; everything else
// uses the default.
var sweepBudgets = map[string]int{
	"kaczmarz": 80000, // rate 1−λmin²/‖A‖_F² per projection is slow on Laplacians
	"jacobi":   8000,
}

func budgetFor(name string) int {
	if b, ok := sweepBudgets[name]; ok {
		return b
	}
	return 5000
}

// skipNonAtomicUnderRace skips the deliberately racy NonAtomic ablation
// when the race detector is active: its plain loads/stores are the
// paper's §9 experiment, not a bug (same policy as internal/core's
// tests).
func skipNonAtomicUnderRace(t *testing.T, name string) {
	t.Helper()
	if race.Enabled && name == "asyrgs-nonatomic" {
		t.Skip("NonAtomic ablation is deliberately racy; skipped under -race")
	}
}

// cgReference solves A·x = b from zero with the registry's cg to tol,
// within 10·n iterations.
func cgReference(t *testing.T, a *sparse.CSR, b []float64, tol float64) []float64 {
	t.Helper()
	m, err := method.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	if res, err := m.Solve(context.Background(), a, b, x, method.Opts{Tol: tol, MaxSweeps: 10 * a.Rows}); err != nil {
		t.Fatalf("CG reference: %v (%+v)", err, res)
	}
	return x
}

// relDiff returns ‖u−v‖₂/‖v‖₂.
func relDiff(u, v []float64) float64 {
	d := make([]float64, len(u))
	vec.Sub(d, u, v)
	nv := vec.Nrm2(v)
	if nv == 0 {
		nv = 1
	}
	return vec.Nrm2(d) / nv
}

func TestSPDConformance(t *testing.T) {
	const tol = 1e-6
	systems := []struct {
		name string
		a    *sparse.CSR
	}{
		{"laplacian2d", workload.Laplacian2D(8, 8)},
		{"randomspd", workload.RandomSPD(150, 6, 1.5, 7)},
	}
	for _, sys := range systems {
		a := sys.a
		b, xstar := workload.RHSForSolution(a, 11)

		// CG reference solution at a tighter tolerance than the suite's.
		xref := cgReference(t, a, b, 1e-10)

		for _, m := range method.ByKind(method.SPD) {
			m := m
			t.Run(sys.name+"/"+m.Name(), func(t *testing.T) {
				skipNonAtomicUnderRace(t, m.Name())
				x := make([]float64, a.Cols)
				res, err := m.Solve(context.Background(), a, b, x, method.Opts{
					Tol: tol, MaxSweeps: budgetFor(m.Name()),
					Workers: 2, Seed: 3, CheckEvery: 10, XStar: xstar,
				})
				if err != nil {
					t.Fatalf("solve: %v (result %+v)", err, res)
				}
				if !res.Converged || res.Residual > tol {
					t.Fatalf("did not converge: %+v", res)
				}
				if res.Method != m.Name() {
					t.Fatalf("result reports method %q, want %q", res.Method, m.Name())
				}
				if res.Sweeps <= 0 || res.Wall <= 0 {
					t.Fatalf("missing work accounting: %+v", res)
				}
				if math.IsNaN(res.ANormErr) || res.ANormErr > 1e-2 {
					t.Fatalf("A-norm error not reported or too large: %+v", res)
				}
				if d := relDiff(x, xref); d > 1e-3 {
					t.Fatalf("solution disagrees with CG reference by %.3e", d)
				}
			})
		}
	}
}

func TestLeastSquaresConformance(t *testing.T) {
	const tol = 1e-8
	a := workload.RandomOverdetermined(120, 40, 5, 9)
	b := workload.RandomRHS(a.Rows, 13)

	// Normal-equations reference: solve AᵀA·x = Aᵀb with CG.
	ata := sparse.Gram(a)
	atb := make([]float64, a.Cols)
	a.ToCSC().MulTransVec(atb, b)
	xref := cgReference(t, ata, atb, 1e-12)

	lsqMethods := method.ByKind(method.LeastSquares)
	if len(lsqMethods) == 0 {
		t.Fatal("no least-squares methods registered")
	}
	for _, m := range lsqMethods {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			x := make([]float64, a.Cols)
			res, err := m.Solve(context.Background(), a, b, x, method.Opts{
				Tol: tol, MaxSweeps: 40000, Workers: 2, Seed: 5, CheckEvery: 25,
			})
			if err != nil {
				t.Fatalf("solve: %v (result %+v)", err, res)
			}
			if !res.Converged || res.Residual > tol {
				t.Fatalf("did not converge: %+v", res)
			}
			if d := relDiff(x, xref); d > 1e-4 {
				t.Fatalf("solution disagrees with normal equations by %.3e", d)
			}
		})
	}
}

// TestFixedWorkMode checks the bench drivers' contract: a non-positive
// tolerance runs the exact sweep budget and reports the residual reached.
func TestFixedWorkMode(t *testing.T) {
	a := workload.RandomSPD(100, 5, 1.5, 21)
	b := workload.RandomRHS(100, 22)
	for _, name := range []string{"asyrgs", "rgs", "jacobi"} {
		m, err := method.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 100)
		res, err := m.Solve(context.Background(), a, b, x, method.Opts{
			Tol: 0, MaxSweeps: 6, Workers: 2, CheckEvery: 6,
		})
		if err != nil {
			t.Fatalf("%s: fixed-work mode must not error: %v", name, err)
		}
		if res.Sweeps != 6 {
			t.Fatalf("%s: ran %d sweeps, want the full budget of 6", name, res.Sweeps)
		}
		if res.Converged {
			t.Fatalf("%s: fixed-work mode must not report convergence", name)
		}
		if !(res.Residual > 0 && res.Residual < 1) {
			t.Fatalf("%s: made no progress: %v", name, res.Residual)
		}
	}
}

// TestReportedResidualMatchesReturnedIterate: every registered method
// reports the residual of the x it returns — ‖b−Ax‖/‖b‖ for SPD methods,
// ‖Aᵀ(b−Ax)‖/‖Aᵀb‖ for least squares — recomputed here from x, whether
// or not the solve converged. A solve whose residual leaves the floats
// (jacobi on the social Gram matrix) stops with ErrNonFinite, reporting
// that residual, before its budget, on an x that is no solution.
func TestReportedResidualMatchesReturnedIterate(t *testing.T) {
	type system struct {
		name string
		a    *sparse.CSR
	}
	gram, _ := workload.SocialGram(workload.DefaultSocialGram(100, 3))
	spd := []system{
		{"laplacian2d", workload.Laplacian2D(8, 8)},
		{"randomspd", workload.RandomSPD(150, 6, 1.5, 7)},
		{"socialgram", gram},
	}
	ls := []system{{"overdetermined", workload.RandomOverdetermined(120, 40, 5, 9)}}
	for _, m := range method.All() {
		systems := spd
		if m.Kind() == method.LeastSquares {
			systems = ls
		}
		for _, sys := range systems {
			t.Run(sys.name+"/"+m.Name(), func(t *testing.T) {
				skipNonAtomicUnderRace(t, m.Name())
				a := sys.a
				b := workload.RandomRHS(a.Rows, 31)
				x := make([]float64, a.Cols)
				res, err := m.Solve(context.Background(), a, b, x, method.Opts{
					Tol: 1e-6, MaxSweeps: 300, Workers: 2, Seed: 3,
				})
				nonFinite := errors.Is(err, method.ErrNonFinite)
				if err != nil && !nonFinite && !errors.Is(err, method.ErrNotConverged) {
					t.Fatalf("solve: %v", err)
				}
				if finite := !math.IsNaN(res.Residual) && !math.IsInf(res.Residual, 0); finite == nonFinite {
					t.Fatalf("residual %v with error %v", res.Residual, err)
				}
				r := make([]float64, a.Rows)
				a.MulVec(r, x)
				vec.Sub(r, b, r)
				want := vec.Nrm2(r) / vec.Nrm2(b)
				if m.Kind() == method.LeastSquares {
					csc := a.ToCSC()
					atr := make([]float64, a.Cols)
					csc.MulTransVec(atr, r)
					atb := make([]float64, a.Cols)
					csc.MulTransVec(atb, b)
					want = vec.Nrm2(atr) / vec.Nrm2(atb)
				}
				if nonFinite {
					// The step's own residual overflowed; x is far from a
					// solution, which the recomputed residual must show.
					if res.Sweeps >= 300 || want < 1 {
						t.Fatalf("stopped after %d sweeps on an x with residual %v", res.Sweeps, want)
					}
					return
				}
				if math.Abs(res.Residual-want) > 1e-6*want {
					t.Fatalf("reported residual %.9e, recomputed from the returned x %.9e (converged %v after %d sweeps)",
						res.Residual, want, res.Converged, res.Sweeps)
				}
			})
		}
	}
}

// TestNoSolveConvergesOnANonFiniteIterate: A = [1 3; 3 1] is symmetric
// but indefinite, so the SPD methods blow up on it. Whatever the method
// and the worker count, a solve that reports Converged returns a finite
// x: a NaN iterate must not measure as a zero residual.
func TestNoSolveConvergesOnANonFiniteIterate(t *testing.T) {
	a, err := sparse.ReadMM(strings.NewReader("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 1 3\n2 2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range method.ByKind(method.SPD) {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", m.Name(), workers), func(t *testing.T) {
				skipNonAtomicUnderRace(t, m.Name())
				x := make([]float64, 2)
				res, err := m.Solve(context.Background(), a, []float64{1, 1}, x, method.Opts{Tol: 1e-6, Workers: workers})
				for _, v := range x {
					if res.Converged && (math.IsNaN(v) || math.IsInf(v, 0)) {
						t.Fatalf("converged (residual %v, err %v) on x = %v", res.Residual, err, x)
					}
				}
			})
		}
	}
}

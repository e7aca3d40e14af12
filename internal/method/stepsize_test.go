package method_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// stepSizeMethods are the registry methods with a relaxation step size
// β: the AsyRGS/RGS family, fcg through its AsyRGS preconditioner,
// kaczmarz, the §8 least-squares family and the sharded backend. cg,
// jacobi, gs and asyncjacobi have none.
var stepSizeMethods = map[string]bool{
	"asyrgs": true, "asyrgs-nonatomic": true, "asyrgs-partitioned": true,
	"asyrgs-weighted": true, "rgs": true, "fcg": true, "kaczmarz": true,
	"lsqcd": true, "lsqcd-async": true, "lsqcd-weighted": true,
	"asyrgs-distmem": true,
}

// TestStepSizeContract: a registry method with a step size rejects β
// outside (0, 2), NaN and ±Inf included, whether at Prepare or at Solve,
// and accepts 0 (its default) and a value inside; a method without one
// ignores β and returns the same iterate bit for bit. The solves are one
// worker at a fixed three sweeps.
func TestStepSizeContract(t *testing.T) {
	for name := range stepSizeMethods {
		if _, err := method.Get(name); err != nil {
			t.Fatalf("step-size method %q is not registered: %v", name, err)
		}
	}
	spd := workload.RandomSPD(60, 5, 1.5, 11)
	ls := workload.RandomOverdetermined(60, 20, 4, 12)
	bad := []float64{-1, 2, 117, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, m := range method.All() {
		t.Run(m.Name(), func(t *testing.T) {
			skipNonAtomicUnderRace(t, m.Name())
			a := spd
			if m.Kind() == method.LeastSquares {
				a = ls
			}
			b := workload.RandomRHS(a.Rows, 13)
			solve := func(beta float64) ([]float64, error) {
				x := make([]float64, a.Cols)
				_, err := m.Solve(context.Background(), a, b, x, method.Opts{
					Tol: 0, MaxSweeps: 3, Workers: 1, Seed: 5, Beta: beta,
				})
				if errors.Is(err, method.ErrNotConverged) {
					err = nil
				}
				return x, err
			}
			if !stepSizeMethods[m.Name()] {
				want, err := solve(0)
				if err != nil {
					t.Fatalf("β = 0: %v", err)
				}
				for _, beta := range bad {
					got, err := solve(beta)
					if err != nil {
						t.Fatalf("β = %g: %v; a method without a step size must ignore it", beta, err)
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("β = %g: x[%d] = %v, want %v as at β = 0", beta, i, got[i], want[i])
						}
					}
				}
				return
			}
			for _, beta := range bad {
				if _, err := solve(beta); err == nil {
					t.Errorf("β = %g: accepted, want an error", beta)
				}
			}
			for _, beta := range []float64{0, 0.7} {
				x, err := solve(beta)
				if err != nil {
					t.Fatalf("β = %g: %v", beta, err)
				}
				for i, v := range x {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("β = %g: x[%d] = %v", beta, i, v)
					}
				}
			}
		})
	}
}

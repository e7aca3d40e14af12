// Tests for the two-phase Prepare/Solve pipeline: prepared-state reuse
// (zero re-preparation on warm solves and across batch columns), batch
// correctness against the single-RHS path, and the fallback adapter for
// methods without separable preparation.
package method_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// prepCounters snapshots every preparation counter the solver packages
// instrument: Gram/SpGEMM builds, core diagonal preparations, Kaczmarz
// row-norm passes and least-squares CSC builds.
type prepCounters struct {
	gram, core, kaczmarz, lsq uint64
}

func snapshotPrep() prepCounters {
	return prepCounters{
		gram:     sparse.GramCount(),
		core:     core.PrepCount(),
		kaczmarz: kaczmarz.PrepCount(),
		lsq:      lsq.PrepCount(),
	}
}

func (c prepCounters) delta(later prepCounters) prepCounters {
	return prepCounters{
		gram:     later.gram - c.gram,
		core:     later.core - c.core,
		kaczmarz: later.kaczmarz - c.kaczmarz,
		lsq:      later.lsq - c.lsq,
	}
}

func (c prepCounters) total() uint64 { return c.gram + c.core + c.kaczmarz + c.lsq }

// TestPreparedReuseZeroReprep is the pipeline's core guarantee: after
// Prepare, any number of solves — and every right-hand side of a batch —
// perform zero additional preparations (no SpGEMM, row-norm, CSC or
// diagonal recomputation).
func TestPreparedReuseZeroReprep(t *testing.T) {
	spd := workload.RandomSPD(120, 4, 1.5, 3)
	tall := workload.RandomOverdetermined(160, 60, 4, 5)
	cases := []struct {
		methodName string
		a          *sparse.CSR
	}{
		{"asyrgs", spd},
		{"asyrgs-weighted", spd},
		{"rgs", spd},
		{"fcg", spd},
		{"jacobi", spd},
		{"gs", spd},
		{"kaczmarz", spd},
		{"cg", spd},
		{"lsqcd", tall},
		{"lsqcd-async", tall},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.methodName, func(t *testing.T) {
			m, err := method.Get(tc.methodName)
			if err != nil {
				t.Fatal(err)
			}
			opts := method.Opts{Tol: 1e-8, MaxSweeps: 3000, Workers: 2, Seed: 7}
			before := snapshotPrep()
			ps, err := method.Prepare(ctx, m, tc.a, opts)
			if err != nil {
				t.Fatal(err)
			}
			prepDelta := before.delta(snapshotPrep())
			if tc.methodName != "cg" && tc.methodName != "jacobi" && tc.methodName != "gs" && prepDelta.total() == 0 {
				t.Fatalf("Prepare performed no instrumented preparation for %s", tc.methodName)
			}

			// Warm solves: two single right-hand sides, then a batch of
			// four — all against the one prepared system.
			warmStart := snapshotPrep()
			for rhs := 0; rhs < 2; rhs++ {
				b := workload.RandomRHS(tc.a.Rows, uint64(10+rhs))
				x := make([]float64, tc.a.Cols)
				if _, err := ps.Solve(ctx, b, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
					t.Fatalf("warm solve %d: %v", rhs, err)
				}
			}
			bs := make([][]float64, 4)
			xs := make([][]float64, 4)
			for j := range bs {
				bs[j] = workload.RandomRHS(tc.a.Rows, uint64(20+j))
				xs[j] = make([]float64, tc.a.Cols)
			}
			results, err := ps.SolveBatch(ctx, bs, xs, opts)
			if err != nil && !errors.Is(err, method.ErrNotConverged) {
				t.Fatalf("batch: %v", err)
			}
			if len(results) != len(bs) {
				t.Fatalf("batch returned %d results for %d right-hand sides", len(results), len(bs))
			}
			if d := warmStart.delta(snapshotPrep()); d.total() != 0 {
				t.Fatalf("warm solves re-prepared state: %+v", d)
			}
		})
	}
}

// TestSolveBatchConverges checks the batched core path (block iteration
// with SpMM residual evaluation) actually solves every column.
func TestSolveBatchConverges(t *testing.T) {
	a := workload.Laplacian2D(12, 12)
	m, err := method.Get("asyrgs")
	if err != nil {
		t.Fatal(err)
	}
	opts := method.Opts{Tol: 1e-8, MaxSweeps: 5000, Workers: 2, Seed: 1}
	ps, err := method.Prepare(context.Background(), m, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	const c = 5
	bs := make([][]float64, c)
	xs := make([][]float64, c)
	for j := range bs {
		bs[j] = workload.RandomRHS(a.Rows, uint64(j+1))
		xs[j] = make([]float64, a.Cols)
	}
	results, err := ps.SolveBatch(context.Background(), bs, xs, opts)
	if err != nil {
		t.Fatalf("batch did not converge: %v", err)
	}
	for j, res := range results {
		if !res.Converged || res.Residual > 1e-8 {
			t.Fatalf("column %d: %+v", j, res)
		}
		if res.Method != "asyrgs" {
			t.Fatalf("column %d: method %q", j, res.Method)
		}
		// Verify the returned iterate independently of the solver's own
		// residual bookkeeping.
		r := make([]float64, a.Rows)
		a.MulVec(r, xs[j])
		var num, den float64
		for i := range r {
			d := bs[j][i] - r[i]
			num += d * d
			den += bs[j][i] * bs[j][i]
		}
		if rel := math.Sqrt(num / den); rel > 1e-7 {
			t.Fatalf("column %d: iterate residual %g", j, rel)
		}
	}
}

// TestSolveBatchHonoursContext: a cancelled context stops the batched
// core path promptly with a wrapped context error.
func TestSolveBatchHonoursContext(t *testing.T) {
	a := workload.Laplacian2D(10, 10)
	m, _ := method.Get("asyrgs")
	ps, err := method.Prepare(context.Background(), m, a, method.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bs := [][]float64{workload.RandomRHS(a.Rows, 1), workload.RandomRHS(a.Rows, 2)}
	xs := [][]float64{make([]float64, a.Cols), make([]float64, a.Cols)}
	_, err = ps.SolveBatch(ctx, bs, xs, method.Opts{Tol: 1e-12, MaxSweeps: 1 << 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// plainMethod is a Method that does NOT implement Preparer; Prepare must
// wrap it in the fallback adapter.
type plainMethod struct{ solves int }

func (m *plainMethod) Name() string      { return "plain-test" }
func (m *plainMethod) Kind() method.Kind { return method.SPD }
func (m *plainMethod) Solve(_ context.Context, a *sparse.CSR, b, x []float64, _ method.Opts) (method.Result, error) {
	m.solves++
	copy(x, b) // pretend A = I
	return method.Result{Residual: 0, Converged: true, Sweeps: 1}, nil
}

func TestFallbackAdapterForNonPreparers(t *testing.T) {
	a := sparse.Identity(4)
	pm := &plainMethod{}
	ps, err := method.Prepare(context.Background(), pm, a, method.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4}
	x := make([]float64, 4)
	if _, err := ps.Solve(context.Background(), b, x, method.Opts{}); err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	xs := [][]float64{make([]float64, 4), make([]float64, 4)}
	results, err := ps.SolveBatch(context.Background(), bs, xs, method.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || pm.solves != 3 {
		t.Fatalf("fallback should delegate every solve: %d results, %d solves", len(results), pm.solves)
	}
	if xs[1][1] != 1 {
		t.Fatal("fallback batch did not write the iterate")
	}
}

// TestBuiltinsArePreparers: every registered method participates in the
// two-phase pipeline natively.
func TestBuiltinsArePreparers(t *testing.T) {
	for _, m := range method.All() {
		if _, ok := m.(method.Preparer); !ok {
			t.Fatalf("built-in %q does not implement Preparer", m.Name())
		}
	}
}

// BenchmarkPreparedVsCold quantifies the pipeline's amortization on a
// least-squares workload at a small fixed sweep budget, where CSC
// construction dominates a cold solve: warm (prepared) solves must beat
// cold ones.
func BenchmarkPreparedVsCold(b *testing.B) {
	a := workload.RandomOverdetermined(4000, 1500, 6, 9)
	rhs := workload.RandomRHS(a.Rows, 11)
	opts := method.Opts{Tol: 0, MaxSweeps: 1, CheckEvery: 1, Workers: 1}
	m, err := method.Get("lsqcd")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := make([]float64, a.Cols)
			if _, err := m.Solve(context.Background(), a, rhs, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ps, err := method.Prepare(context.Background(), m, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := make([]float64, a.Cols)
			if _, err := ps.Solve(context.Background(), rhs, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
				b.Fatal(err)
			}
		}
	})
}

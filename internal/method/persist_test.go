// Tests for the prepared-state codecs: a restored system must be
// behaviorally indistinguishable from a freshly prepared one (bit-identical
// deterministic trajectories, zero instrumented re-preparation on decode),
// and structurally damaged payloads must fail loudly instead of panicking.
package method_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// persistCases enumerates every method expected to support persistent
// prepared state, with a matrix of its kind.
func persistCases() []struct {
	methodName string
	a          *sparse.CSR
} {
	spd := workload.RandomSPD(140, 4, 1.5, 11)
	tall := workload.RandomOverdetermined(180, 70, 4, 13)
	return []struct {
		methodName string
		a          *sparse.CSR
	}{
		{"asyrgs", spd},
		{"asyrgs-nonatomic", spd},
		{"asyrgs-partitioned", spd},
		{"asyrgs-weighted", spd},
		{"rgs", spd},
		{"kaczmarz", spd},
		{"lsqcd", tall},
		{"lsqcd-async", tall},
		{"lsqcd-weighted", tall},
	}
}

// TestPersistRoundTripBitIdentical is the restore-equivalence guarantee:
// encode → decode must yield a system whose deterministic solves (one
// worker, fixed seed, fixed work) track the freshly prepared system bit
// for bit, in both precisions. Decode must also perform zero
// instrumented preparation — restoring is the whole point.
func TestPersistRoundTripBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range persistCases() {
		for _, prec := range []string{"", "f32"} {
			name := tc.methodName
			if prec != "" {
				name += "/" + prec
			}
			t.Run(name, func(t *testing.T) {
				m, err := method.Get(tc.methodName)
				if err != nil {
					t.Fatal(err)
				}
				pp, ok := method.AsPersistent(m)
				if !ok {
					t.Fatalf("%s does not implement PersistentPreparer", tc.methodName)
				}
				// Tol 0 = fixed work: both systems run the identical sweep
				// budget, so trajectories are comparable step for step.
				opts := method.Opts{Workers: 1, Seed: 42, MaxSweeps: 25, CheckEvery: 5, Precision: prec}
				fresh, err := method.Prepare(ctx, m, tc.a, opts)
				if err != nil {
					t.Fatal(err)
				}
				payload, err := pp.EncodePrepared(fresh)
				if err != nil {
					t.Fatal(err)
				}
				before := snapshotPrep()
				restored, err := pp.DecodePrepared(tc.a, payload, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := before.delta(snapshotPrep()); d.total() != 0 {
					t.Fatalf("DecodePrepared re-ran instrumented preparation: %+v", d)
				}

				b := workload.RandomRHS(tc.a.Rows, 99)
				x1 := make([]float64, tc.a.Cols)
				x2 := make([]float64, tc.a.Cols)
				r1, err1 := fresh.Solve(ctx, b, x1, opts)
				r2, err2 := restored.Solve(ctx, b, x2, opts)
				for _, err := range []error{err1, err2} {
					if err != nil && !errors.Is(err, method.ErrNotConverged) {
						t.Fatal(err)
					}
				}
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("convergence outcomes diverged: fresh %v, restored %v", err1, err2)
				}
				if r1.Sweeps != r2.Sweeps || r1.Iterations != r2.Iterations {
					t.Fatalf("work diverged: fresh %d sweeps/%d iters, restored %d/%d",
						r1.Sweeps, r1.Iterations, r2.Sweeps, r2.Iterations)
				}
				if math.Float64bits(r1.Residual) != math.Float64bits(r2.Residual) {
					t.Fatalf("residuals diverged: fresh %v, restored %v", r1.Residual, r2.Residual)
				}
				for i := range x1 {
					if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
						t.Fatalf("x[%d] diverged: fresh %v (%#x), restored %v (%#x)",
							i, x1[i], math.Float64bits(x1[i]), x2[i], math.Float64bits(x2[i]))
					}
				}
			})
		}
	}
}

// TestPersistDecodeRejectsDamage feeds every truncation and a byte flip
// in every position to each family decoder: damage must surface as an
// error (or, for value-level flips the structural validators cannot see,
// still decode — but never panic).
func TestPersistDecodeRejectsDamage(t *testing.T) {
	ctx := context.Background()
	for _, tc := range persistCases() {
		t.Run(tc.methodName, func(t *testing.T) {
			m, _ := method.Get(tc.methodName)
			pp, ok := method.AsPersistent(m)
			if !ok {
				t.Fatalf("%s does not implement PersistentPreparer", tc.methodName)
			}
			opts := method.Opts{Workers: 1, Seed: 1}
			ps, err := method.Prepare(ctx, m, tc.a, opts)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := pp.EncodePrepared(ps)
			if err != nil {
				t.Fatal(err)
			}
			// Truncations must always fail: every prefix is structurally
			// incomplete.
			for cut := 0; cut < len(payload); cut++ {
				if _, err := pp.DecodePrepared(tc.a, payload[:cut], opts); err == nil {
					t.Fatalf("truncation to %d bytes decoded without error", cut)
				}
			}
			// Byte flips must never panic; flips in the framing or length
			// prefixes fail, flips in float payload bytes may legally
			// decode to different values (value integrity is the
			// caller's to guard, e.g. with a checksum around the payload).
			for i := 0; i < len(payload); i++ {
				mut := append([]byte(nil), payload...)
				mut[i] ^= 0xff
				_, _ = pp.DecodePrepared(tc.a, mut, opts)
			}
		})
	}
}

// TestPersistDecodeRejectsWrongFamily routes each family's payload
// through every other family's decoder: the family tag must reject it.
func TestPersistDecodeRejectsWrongFamily(t *testing.T) {
	ctx := context.Background()
	cases := persistCases()
	payloads := make(map[string][]byte)
	for _, tc := range cases {
		m, _ := method.Get(tc.methodName)
		pp, _ := method.AsPersistent(m)
		ps, err := method.Prepare(ctx, m, tc.a, method.Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if payloads[tc.methodName], err = pp.EncodePrepared(ps); err != nil {
			t.Fatal(err)
		}
	}
	family := func(name string) string {
		switch name {
		case "kaczmarz":
			return "kaczmarz"
		case "lsqcd", "lsqcd-async", "lsqcd-weighted":
			return "lsq"
		default:
			return "core"
		}
	}
	for _, dst := range cases {
		for _, src := range cases {
			if family(src.methodName) == family(dst.methodName) {
				continue
			}
			m, _ := method.Get(dst.methodName)
			pp, _ := method.AsPersistent(m)
			if _, err := pp.DecodePrepared(dst.a, payloads[src.methodName], method.Opts{}); err == nil {
				t.Fatalf("%s decoded a %s payload without error", dst.methodName, src.methodName)
			}
		}
	}
}

// TestPersistDecodeRejectsWrongMatrix decodes a payload over a matrix of
// a different shape: the state validators must reject the mismatch.
func TestPersistDecodeRejectsWrongMatrix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range persistCases() {
		t.Run(tc.methodName, func(t *testing.T) {
			m, _ := method.Get(tc.methodName)
			pp, _ := method.AsPersistent(m)
			ps, err := method.Prepare(ctx, m, tc.a, method.Opts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			payload, err := pp.EncodePrepared(ps)
			if err != nil {
				t.Fatal(err)
			}
			other := workload.RandomSPD(tc.a.Rows+3, 4, 1.5, 29)
			if _, err := pp.DecodePrepared(other, payload, method.Opts{}); err == nil {
				t.Fatalf("%s decoded over a mismatched matrix without error", tc.methodName)
			}
		})
	}
}

// TestAsPersistentCoverage pins down which methods persist: the three
// codec families do, everything else — Krylov methods whose state is the
// matrix itself, stationary methods, and the distributed backend — does
// not.
func TestAsPersistentCoverage(t *testing.T) {
	persistent := map[string]bool{}
	for _, tc := range persistCases() {
		persistent[tc.methodName] = true
	}
	for _, name := range method.Names() {
		m, err := method.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := method.AsPersistent(m); ok != persistent[name] {
			t.Fatalf("AsPersistent(%s) = %v, want %v", name, ok, persistent[name])
		}
	}
}

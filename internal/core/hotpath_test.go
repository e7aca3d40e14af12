package core

// Hot-path regression tests for the chunked-claiming and alias-sampling
// rebuild: the direction consumed at global iteration j must be a pure
// function of (seed, j) — identical across worker counts, chunk sizes,
// and the buffered fill path — and the warm sequential solve must not
// allocate.

import (
	"sync/atomic"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// atomicCounter is a padded-enough per-iteration execution counter for
// the multiset test (one per index, so false sharing is irrelevant).
type atomicCounter struct{ v atomic.Uint64 }

// TestFillMatchesPickEverySampler checks the bulk fill used by chunked
// workers against per-index picks for every sampler kind and several
// chunk partitionings of the same index range.
func TestFillMatchesPickEverySampler(t *testing.T) {
	diag := []float64{1, 5, 2, 0.5, 3, 3, 1, 8, 2, 4}
	samplers := map[string]sampler{
		"uniform":     {kind: samplerUniform, n: 10},
		"alias":       aliasSampler(t, diag),
		"partitioned": {kind: samplerPartitioned, n: 10, workers: 3},
	}
	stream := rng.NewStream(31)
	const total = 4096
	for name, smp := range samplers {
		want := make([]int32, total)
		for j := range want {
			want[j] = int32(smp.pick(stream, uint64(j), 1))
		}
		for _, chunk := range []int{1, 7, 64, 500, total} {
			got := make([]int32, total)
			for base := 0; base < total; base += chunk {
				top := base + chunk
				if top > total {
					top = total
				}
				smp.fill(stream, uint64(base), got[base:top], 1)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s chunk=%d: fill[%d] = %d, pick = %d", name, chunk, j, got[j], want[j])
				}
			}
		}
	}
}

// TestChunkSizeInvariantDirectionMultiset runs the asynchronous solver
// over the same budget at several claiming granularities and worker
// counts, in shared, partitioned and SyncPeriod modes, recording every
// (iteration, worker) the throttle hook sees. The set of global iteration
// indices executed must be exactly [0, budget) for every configuration —
// chunked claiming drops and duplicates nothing — which, with the pure
// sampler, makes the direction multiset identical everywhere.
//
// Regime: schedule-independent. Coverage holds under every interleaving.
func TestChunkSizeInvariantDirectionMultiset(t *testing.T) {
	a := workload.RandomSPD(60, 5, 1.5, 9)
	b := workload.RandomRHS(60, 10)
	const sweeps = 3
	budget := uint64(sweeps) * 60
	modes := []struct {
		name string
		opts Options
	}{
		{"shared", Options{}},
		{"partitioned", Options{Partitioned: true}},
		{"syncperiod7", Options{SyncPeriod: 7}},
	}
	for _, mode := range modes {
		for _, workers := range []int{2, 5} {
			// 1<<62 exceeds the budget: the claim clamps it to the whole range.
			for _, chunk := range []int{0, 1, 3, 64, 1000, 1 << 62} {
				seen := make([]atomicCounter, budget)
				opts := mode.opts
				opts.Seed, opts.Workers, opts.Chunk = 4, workers, chunk
				opts.Throttle = func(_ int, j uint64) { seen[j].v.Add(1) }
				s, err := New(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, 60)
				s.AsyncSweeps(x, b, sweeps)
				for j := range seen {
					if got := seen[j].v.Load(); got != 1 {
						t.Fatalf("%s workers=%d chunk=%d: iteration %d executed %d times", mode.name, workers, chunk, j, got)
					}
				}
			}
		}
	}
}

// TestChunkedSolveMatchesUnchunkedSequentially checks end-to-end that
// the sequential iterate is bit-for-bit independent of the claiming
// granularity (one worker executes indices in order whatever the chunk).
func TestChunkedSolveMatchesUnchunkedSequentially(t *testing.T) {
	a := workload.RandomSPD(80, 6, 1.5, 12)
	b := workload.RandomRHS(80, 13)
	solve := func(chunk int) []float64 {
		s, err := New(a, Options{Seed: 21, Chunk: chunk, DiagonalWeighted: true})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 80)
		s.Sweeps(x, b, 5)
		return x
	}
	want := solve(0)
	for _, chunk := range []int{1, 16, 4096} {
		got := solve(chunk)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d: iterate differs at %d (%g vs %g)", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestReinitRecyclesScratch checks the pool contract: a Solver recycled
// with Reinit replays the stream from index 0 with fresh statistics and
// produces the same iterate as a fresh Solver.
func TestReinitRecyclesScratch(t *testing.T) {
	a := workload.RandomSPD(50, 5, 1.5, 40)
	p, err := PrepareMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomRHS(50, 41)
	fresh, _ := NewFromPrep(p, Options{Seed: 8})
	xf := make([]float64, 50)
	fresh.Sweeps(xf, b, 4)

	s, _ := NewFromPrep(p, Options{Seed: 999, DiagonalWeighted: true})
	xw := make([]float64, 50)
	s.Sweeps(xw, b, 2)
	if err := s.Reinit(p, Options{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if s.Iterations() != 0 || s.ObservedTau() != 0 {
		t.Fatal("Reinit must reset the iteration stream and statistics")
	}
	xr := make([]float64, 50)
	s.Sweeps(xr, b, 4)
	if !vec.Equal(xr, xf, 0) {
		t.Fatal("recycled solver diverged from a fresh one")
	}
	if _, err := NewFromPrep(p, Options{Chunk: -1}); err == nil {
		t.Fatal("negative chunk must be rejected")
	}
}

// TestWarmSequentialSweepsZeroAlloc is the core-family allocation
// regression: after warm-up, a prepared sequential solve's sweep and
// residual path must not allocate (the scratch lives on the recycled
// Solver).
func TestWarmSequentialSweepsZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	a := workload.RandomSPD(200, 6, 1.5, 50)
	p, err := PrepareMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomRHS(200, 51)
	s, err := NewFromPrep(p, Options{Seed: 5, DiagonalWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	avg := testing.AllocsPerRun(20, func() {
		s.Sweeps(x, b, 1)
		_ = s.Residual(x, b)
	})
	if avg != 0 {
		t.Fatalf("warm sequential sweep allocated %.1f times per run, want 0", avg)
	}
}

// BenchmarkWeightedWarmSweep is the end-to-end benchmark of the alias
// draw: a warm diagonal-weighted sweep at n = 10^5.
func BenchmarkWeightedWarmSweep(b *testing.B) {
	a := workload.RandomSPD(100_000, 6, 1.5, 1)
	rhs := workload.RandomRHS(100_000, 2)
	s, err := New(a, Options{Seed: 3, DiagonalWeighted: true})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweeps(x, rhs, 1)
	}
}

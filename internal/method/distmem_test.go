// Tests for the sharded distributed-memory registry method beyond what
// the conformance and cancellation suites already assert: prep-key
// separation of deployment shapes, communication accounting in the
// normalized Result, accumulated over rounds, and batch solves over one
// shared worker pool.
package method

import (
	"context"
	"errors"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/workload"
)

func TestDistmemPrepKeySeparatesDeployments(t *testing.T) {
	m, err := Get("asyrgs-distmem")
	if err != nil {
		t.Fatal(err)
	}
	pk, ok := m.(PrepKeyer)
	if !ok {
		t.Fatal("asyrgs-distmem must implement PrepKeyer: its Prepare consumes Opts")
	}
	base := Opts{Workers: 4, QueueCap: 8, Seed: 1}
	if pk.PrepKey(base) != pk.PrepKey(base) {
		t.Fatal("PrepKey must be deterministic")
	}
	variants := []Opts{
		{Workers: 8, QueueCap: 8, Seed: 1},
		{Workers: 4, QueueCap: 2, Seed: 1},
		{Workers: 4, QueueCap: 8, Seed: 9},
		{Workers: 4, QueueCap: 8, Seed: 1, Beta: 0.5},
	}
	for i, v := range variants {
		if pk.PrepKey(v) == pk.PrepKey(base) {
			t.Fatalf("variant %d must get its own prepared-state key", i)
		}
	}
	// Iteration-only knobs must not fragment the cache key.
	warm := base
	warm.Tol, warm.MaxSweeps, warm.CheckEvery = 1e-8, 77, 3
	if pk.PrepKey(warm) != pk.PrepKey(base) {
		t.Fatal("iteration knobs (tol/budget/check-every) must not change the prep key")
	}
	// The key is canonical: an omitted beta resolves to the backend's
	// default of 1, so beta:0 and beta:1 traffic shares one entry.
	canon := base
	canon.Beta = 1
	if pk.PrepKey(canon) != pk.PrepKey(base) {
		t.Fatal("beta 0 (default) and beta 1 must share a prep key")
	}
}

func TestDistmemReportsCommunication(t *testing.T) {
	a := workload.RandomSPD(150, 4, 1.5, 5)
	b := workload.RandomRHS(150, 6)
	m, err := Get("asyrgs-distmem")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 150)
	res, err := m.Solve(context.Background(), a, b, x, Opts{
		Tol: 1e-6, MaxSweeps: 2000, Workers: 4, QueueCap: 2, Seed: 7, CheckEvery: 5,
	})
	if err != nil {
		t.Fatalf("%v (result %+v)", err, res)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Messages == 0 {
		t.Fatal("sharded solve must report network traffic in Result.Messages")
	}
	// Messages accumulate across every convergence-check round: with
	// CheckEvery=5 and >5 sweeps there were multiple rounds, so the total
	// must exceed a single round's deterministic traffic.
	if res.Sweeps > 5 && res.Messages <= uint64(5*150*3) {
		t.Fatalf("messages look per-round, not accumulated: %d over %d sweeps", res.Messages, res.Sweeps)
	}
	if res.MaxQueue <= 0 {
		t.Fatal("backpressured run must observe a positive backlog")
	}
	if res.MaxQueue > 2*(4-1)+1 {
		t.Fatalf("backlog %d exceeds the physical inbox bound %d", res.MaxQueue, 2*3+1)
	}
}

// TestDistmemMessagesAccumulateAcrossRounds: a solve of R rounds reports
// the sum of the rounds' messages and the max of their backlogs, not the
// last round's numbers. One round's message count is deterministic —
// every worker performs sweeps·(block size) iterations and ships each
// update to the other w−1 ranks — so R rounds of CheckEvery sweeps must
// report exactly R times one round's traffic.
func TestDistmemMessagesAccumulateAcrossRounds(t *testing.T) {
	a := workload.RandomSPD(120, 4, 1.5, 31)
	b := workload.RandomRHS(120, 32)
	m, err := Get("asyrgs-distmem")
	if err != nil {
		t.Fatal(err)
	}
	const sweeps, rounds = 3, 5
	solve := func(maxSweeps int) Result {
		x := make([]float64, 120)
		// Tol 0 is fixed work: every round runs.
		res, err := m.Solve(context.Background(), a, b, x, Opts{
			MaxSweeps: maxSweeps, CheckEvery: sweeps, Workers: 4, QueueCap: 2, Seed: 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	oneRound := solve(sweeps)
	perRound := oneRound.Messages
	if perRound != uint64(sweeps*120*(4-1)) {
		t.Fatalf("unexpected per-round traffic: %d", perRound)
	}
	res := solve(rounds * sweeps)
	if res.Checks != rounds || res.Sweeps != rounds*sweeps {
		t.Fatalf("ran %d rounds over %d sweeps, want %d over %d", res.Checks, res.Sweeps, rounds, rounds*sweeps)
	}
	if res.Messages != uint64(rounds)*perRound {
		t.Fatalf("messages not accumulated: got %d, want %d rounds x %d", res.Messages, rounds, perRound)
	}
	if res.MaxQueue < oneRound.MaxQueue {
		t.Fatalf("max backlog must be the max over rounds: got %d, single round saw %d", res.MaxQueue, oneRound.MaxQueue)
	}
}

func TestDistmemSolveBatchSharesOnePool(t *testing.T) {
	a := workload.Laplacian2D(10, 10)
	m, err := Get("asyrgs-distmem")
	if err != nil {
		t.Fatal(err)
	}
	opts := Opts{Tol: 1e-8, MaxSweeps: 5000, Workers: 2, QueueCap: 4, Seed: 3, CheckEvery: 10}
	ps, err := Prepare(context.Background(), m, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	const c = 4
	bs := make([][]float64, c)
	xs := make([][]float64, c)
	for j := range bs {
		bs[j] = workload.RandomRHS(a.Rows, uint64(j+1))
		xs[j] = make([]float64, a.Cols)
	}
	results, err := ps.SolveBatch(context.Background(), bs, xs, opts)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != c {
		t.Fatalf("want %d results, got %d", c, len(results))
	}
	for j, res := range results {
		if !res.Converged || res.Residual > 1e-8 {
			t.Fatalf("column %d: %+v", j, res)
		}
		if res.Messages == 0 {
			t.Fatalf("column %d reports no traffic", j)
		}
	}
	// A second batch against the same prepared system must work too (the
	// prepared state is reusable; each batch forks a fresh pool).
	x2 := make([]float64, a.Cols)
	if _, err := ps.Solve(context.Background(), bs[0], x2, opts); err != nil {
		t.Fatalf("warm solve after batch: %v", err)
	}
}

func TestDistmemFixedWorkMode(t *testing.T) {
	a := workload.RandomSPD(80, 4, 1.5, 11)
	b := workload.RandomRHS(80, 12)
	m, err := Get("asyrgs-distmem")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 80)
	res, err := m.Solve(context.Background(), a, b, x, Opts{
		Tol: 0, MaxSweeps: 6, Workers: 2, CheckEvery: 6,
	})
	if err != nil {
		t.Fatalf("fixed-work mode must not error: %v", err)
	}
	if res.Sweeps != 6 || res.Converged {
		t.Fatalf("fixed-work contract violated: %+v", res)
	}
	if !(res.Residual > 0 && res.Residual < 1) {
		t.Fatalf("made no progress: %v", res.Residual)
	}
}

func TestDistmemRejectsBadSystems(t *testing.T) {
	m, err := Get("asyrgs-distmem")
	if err != nil {
		t.Fatal(err)
	}
	tall := workload.RandomOverdetermined(20, 10, 3, 13)
	if _, err := m.Solve(context.Background(), tall, make([]float64, 20), make([]float64, 10), Opts{Tol: 1e-6}); err == nil {
		t.Fatal("rectangular system must be rejected")
	}
	if _, err := Prepare(context.Background(), m, tall, Opts{}); err == nil {
		t.Fatal("Prepare must reject rectangular systems")
	}
	// A step size outside (0, 2) diverges; Prepare rejects it, as the
	// core, kaczmarz and lsq families do.
	sq := workload.Laplacian2D(4, 4)
	for _, beta := range []float64{117, -1} {
		if _, err := Prepare(context.Background(), m, sq, Opts{Beta: beta}); err == nil {
			t.Fatalf("Prepare must reject step size %g", beta)
		}
	}
}

// TestDistmemBatchStickyNotConverged mirrors the solveColumns contract:
// a column exhausting its budget reports ErrNotConverged after the rest
// of the batch still ran.
func TestDistmemBatchStickyNotConverged(t *testing.T) {
	a := workload.Laplacian2D(8, 8)
	m, _ := Get("asyrgs-distmem")
	ps, err := Prepare(context.Background(), m, a, Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{workload.RandomRHS(a.Rows, 1), workload.RandomRHS(a.Rows, 2)}
	xs := [][]float64{make([]float64, a.Cols), make([]float64, a.Cols)}
	results, err := ps.SolveBatch(context.Background(), bs, xs, Opts{
		Tol: 1e-14, MaxSweeps: 2, Workers: 2, CheckEvery: 1,
	})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("unconverged columns must not abort the batch: %d results", len(results))
	}
}

// Regression tests for the sharded backend's historical bugs: the
// send-retry deadlock window (a blocking send after one drain attempt)
// and the per-round seed reuse that replayed identical coordinate
// sequences. The per-round-only message accounting of the old multi-round
// driver is guarded in the registry (method's
// TestDistmemMessagesAccumulateAcrossRounds).
package distmem

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/workload"
)

// TestSendRetryNoDeadlock provokes the old deadlock shape: QueueCap=1
// with many more workers than cores forces inboxes full on nearly every
// send, so a ring of workers blocked on each other's full queues used to
// deadlock once the single drain-and-retry attempt fell through to a
// plain blocking send. The fixed send retries (draining between
// attempts) until it succeeds; the timeout guard turns a regression into
// a test failure instead of a hung suite.
func TestSendRetryNoDeadlock(t *testing.T) {
	a := workload.RandomSPD(256, 4, 1.5, 21)
	b := workload.RandomRHS(256, 22)
	done := make(chan Result, 1)
	go func() {
		x := make([]float64, 256)
		res, err := oneRound(a, x, b, 8, Config{Workers: 32, QueueCap: 1, Seed: 23})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.MessagesSent == 0 {
			t.Fatal("32-worker run must communicate")
		}
		if res.Residual >= 1 {
			t.Fatalf("no progress: %v", res.Residual)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("send deadlocked: full-queue cycle did not drain (old unconditional-break bug)")
	}
}

// TestRoundsSampleFreshCoordinates: each round must advance the
// per-worker stream offsets, so no round replays the previous round's
// coordinate sequence (the old code passed the same seed and offset 0 to
// every round, making rounds identically sampled instead of i.i.d.).
func TestRoundsSampleFreshCoordinates(t *testing.T) {
	a := workload.RandomSPD(64, 4, 1.5, 41)
	b := workload.RandomRHS(64, 42)
	p, err := Prepare(a, Config{Workers: 2, QueueCap: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSolver()
	defer s.Close()

	const sweeps = 2
	picks := map[int][][]int{} // worker -> per-round coordinate sequences
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	round := 0
	s.onPick = func(worker, idx int) {
		<-mu
		for len(picks[worker]) <= round {
			picks[worker] = append(picks[worker], nil)
		}
		picks[worker][round] = append(picks[worker][round], idx)
		mu <- struct{}{}
	}
	x := make([]float64, 64)
	for r := 0; r < 2; r++ {
		round = r
		if _, err := s.Solve(context.Background(), x, b, sweeps); err != nil {
			t.Fatal(err)
		}
	}
	for worker, rounds := range picks {
		if len(rounds) != 2 {
			t.Fatalf("worker %d recorded %d rounds", worker, len(rounds))
		}
		if len(rounds[0]) == 0 || len(rounds[0]) != len(rounds[1]) {
			t.Fatalf("worker %d: uneven rounds %d vs %d", worker, len(rounds[0]), len(rounds[1]))
		}
		same := true
		for j := range rounds[0] {
			if rounds[0][j] != rounds[1][j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("worker %d replayed the identical coordinate sequence across rounds: %v", worker, rounds[0])
		}
	}
}

// TestPersistentPoolReuse: a Solver must survive many rounds and
// right-hand sides on one set of goroutines, and its offsets must keep
// advancing monotonically.
func TestPersistentPoolReuse(t *testing.T) {
	a := workload.RandomSPD(100, 4, 1.5, 51)
	p, err := Prepare(a, Config{Workers: 4, QueueCap: 2, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSolver()
	defer s.Close()
	for rhs := 0; rhs < 3; rhs++ {
		b := workload.RandomRHS(100, uint64(60+rhs))
		x := make([]float64, 100)
		toTol(t, s, x, b, 1e-8, 5, 200)
	}
	for id, base := range s.base {
		if base == 0 {
			t.Fatalf("worker %d stream offset never advanced", id)
		}
	}
}

// TestSolveHonoursContext: a cancelled context stops a round early
// without deadlocking the pool, and the Solver stays usable afterwards.
func TestSolveHonoursContext(t *testing.T) {
	a := workload.RandomSPD(200, 4, 1.5, 71)
	b := workload.RandomRHS(200, 72)
	p, err := Prepare(a, Config{Workers: 8, QueueCap: 1, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSolver()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, 200)
	if _, err := s.Solve(ctx, x, b, 50); err == nil {
		t.Fatal("cancelled round must report the context error")
	}
	// The pool must still run a healthy round after a cancelled one.
	if _, err := s.Solve(context.Background(), x, b, 2); err != nil {
		t.Fatalf("pool unusable after cancellation: %v", err)
	}
}

// TestNNZBalancedPartition: the balanced partitioner must produce a
// valid ownership map whose worst block holds at most its share of the
// nonzeros plus one row, on a matrix with strongly skewed row densities,
// from one block up to one row per block.
func TestNNZBalancedPartition(t *testing.T) {
	// A Gram-style matrix: social workloads concentrate nnz in few rows.
	gram, _ := workload.SocialGram(workload.DefaultSocialGram(400, 81))
	longest := 0
	for i := 0; i < gram.Rows; i++ {
		longest = max(longest, gram.RowPtr[i+1]-gram.RowPtr[i])
	}
	for _, w := range []int{1, 2, 3, 8, 16, 64, gram.Rows} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			part := NNZBalanced(gram, w)
			if part.Workers() != w {
				t.Fatalf("want %d blocks, got %d", w, part.Workers())
			}
			if part.Bounds[0] != 0 || part.Bounds[w] != gram.Rows {
				t.Fatalf("bounds must cover [0,n): %v", part.Bounds)
			}
			limit := gram.NNZ()/w + longest
			for i := 0; i < w; i++ {
				lo, hi := part.Block(i)
				if hi <= lo {
					t.Fatalf("empty block %d: %v", i, part.Bounds)
				}
				if nz := gram.RowPtr[hi] - gram.RowPtr[lo]; nz > limit {
					t.Fatalf("block %d holds %d nnz, above nnz/w + the longest row = %d", i, nz, limit)
				}
			}
		})
	}
	// A balanced solve must still converge.
	b := workload.RandomRHS(gram.Rows, 82)
	x := make([]float64, gram.Rows)
	solveToTol(t, gram, x, b, 1e-6, 10, 200, Config{Workers: 8, QueueCap: 4, Seed: 83})
}

package distmem

import (
	"context"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// oneRound prepares a, runs one round of sweeps on a fresh pool and closes
// it. x is both the initial guess and the output.
func oneRound(a *sparse.CSR, x, b []float64, sweeps int, cfg Config) (Result, error) {
	p, err := Prepare(a, cfg)
	if err != nil {
		return Result{}, err
	}
	s := p.NewSolver()
	defer s.Close()
	return s.Solve(context.Background(), x, b, sweeps)
}

// toTol runs rounds of sweeps on s until a round ends at or below tol,
// as the asyrgs-distmem method does, and fails the test after maxRounds.
// It returns the messages sent over all rounds.
func toTol(t *testing.T, s *Solver, x, b []float64, tol float64, sweeps, maxRounds int) (msgs uint64) {
	t.Helper()
	for range maxRounds {
		res, err := s.Solve(context.Background(), x, b, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		if msgs += res.MessagesSent; res.Residual <= tol {
			return msgs
		}
	}
	t.Fatalf("no round of %d reached %g", maxRounds, tol)
	return 0
}

// solveToTol is toTol on a fresh pool for a prepared with cfg.
func solveToTol(t *testing.T, a *sparse.CSR, x, b []float64, tol float64, sweeps, maxRounds int, cfg Config) uint64 {
	t.Helper()
	p, err := Prepare(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSolver()
	defer s.Close()
	return toTol(t, s, x, b, tol, sweeps, maxRounds)
}

func TestSingleWorkerMatchesSequentialRestrictedRGS(t *testing.T) {
	// One rank owns everything: the run is plain sequential randomized
	// Gauss–Seidel with the per-worker stream; no messages are sent.
	a := workload.RandomSPD(50, 4, 1.5, 1)
	b := workload.RandomRHS(50, 2)
	x := make([]float64, 50)
	res, err := oneRound(a, x, b, 20, Config{Workers: 1, QueueCap: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 0 {
		t.Fatalf("single worker sent %d messages", res.MessagesSent)
	}
	if res.Residual > 1e-3 {
		t.Fatalf("residual %v", res.Residual)
	}
}

func TestDistributedConverges(t *testing.T) {
	a := workload.RandomSPD(200, 5, 1.5, 4)
	b := workload.RandomRHS(200, 5)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	msgs := solveToTol(t, a, x, b, 1e-8, 10, 100, Config{Workers: 4, QueueCap: 8, Seed: 6})
	if e := vec.RelErr(x, want); e > 1e-6 {
		t.Fatalf("solution error %v", e)
	}
	if msgs == 0 {
		t.Fatal("multi-worker run must communicate")
	}
}

func TestTinyQueueStillConverges(t *testing.T) {
	// QueueCap 1 maximises backpressure (freshest possible reads at the
	// price of send stalls); the iteration must stay correct.
	a := workload.RandomSPD(120, 4, 1.5, 7)
	b := workload.RandomRHS(120, 8)
	x := make([]float64, 120)
	solveToTol(t, a, x, b, 1e-6, 10, 100, Config{Workers: 6, QueueCap: 1, Seed: 9})
}

func TestManyWorkersNoDeadlock(t *testing.T) {
	// More workers than cores with minimal queues: the drain-on-block
	// send must prevent cyclic full-queue deadlock.
	a := workload.RandomSPD(160, 4, 1.5, 10)
	b := workload.RandomRHS(160, 11)
	x := make([]float64, 160)
	res, err := oneRound(a, x, b, 5, Config{Workers: 16, QueueCap: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual >= 1 {
		t.Fatalf("no progress: %v", res.Residual)
	}
}

func TestQueueCapacityTradesMessagesForStaleness(t *testing.T) {
	// Larger queues admit more in-flight staleness; the message count is
	// the same (every update is shipped to every peer) but the observed
	// backlog grows. Assert the backlog ordering, the physical knob the
	// emulation exposes.
	a := workload.RandomSPD(300, 5, 1.5, 13)
	b := workload.RandomRHS(300, 14)
	run := func(cap int) Result {
		x := make([]float64, 300)
		res, err := oneRound(a, x, b, 10, Config{Workers: 4, QueueCap: cap, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(1)
	large := run(64)
	// The fan-out identity: every committed update reaches every peer
	// exactly once, whatever the queue budget. sweeps·n iterations summed
	// over the owners, times w−1 peers.
	const want = 10 * 300 * 3
	for _, res := range []Result{small, large} {
		if res.MessagesSent != want {
			t.Fatalf("MessagesSent = %d, want %d (sweeps·n·(w−1))", res.MessagesSent, want)
		}
	}
	if large.MaxQueueLen < small.MaxQueueLen {
		t.Fatalf("larger queues should admit at least as much backlog: %d vs %d", large.MaxQueueLen, small.MaxQueueLen)
	}
	if small.Residual > 10*large.Residual && small.Residual > 1e-6 {
		t.Fatalf("fresher reads should not be much worse: %v vs %v", small.Residual, large.Residual)
	}
}

func TestValidation(t *testing.T) {
	a := workload.RandomSPD(10, 3, 1.5, 16)
	x := make([]float64, 9) // wrong length
	if _, err := oneRound(a, x, make([]float64, 10), 1, Config{Workers: 2}); err == nil {
		t.Fatal("shape mismatch must error")
	}
	bad := workload.Laplacian2D(3, 3).Clone()
	// zero out a diagonal entry
	for k := bad.RowPtr[0]; k < bad.RowPtr[1]; k++ {
		if bad.ColIdx[k] == 0 {
			bad.Vals[k] = 0
		}
	}
	if _, err := oneRound(bad, make([]float64, 9), make([]float64, 9), 1, Config{Workers: 2}); err == nil {
		t.Fatal("zero diagonal must error")
	}
}

func TestOwnershipAssembly(t *testing.T) {
	// The assembled solution must take each coordinate from its owner:
	// run one sweep and verify x changed in every block (owners iterate
	// over their whole block at least once... statistically; assert at
	// least half the blocks changed to stay robust).
	a := workload.RandomSPD(80, 4, 1.5, 17)
	b := workload.RandomRHS(80, 18)
	x := make([]float64, 80)
	if _, err := oneRound(a, x, b, 3, Config{Workers: 4, QueueCap: 4, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	changedBlocks := 0
	for w := 0; w < 4; w++ {
		lo, hi := w*20, (w+1)*20
		for i := lo; i < hi; i++ {
			if x[i] != 0 {
				changedBlocks++
				break
			}
		}
	}
	if changedBlocks < 2 {
		t.Fatalf("only %d blocks show owner updates", changedBlocks)
	}
}

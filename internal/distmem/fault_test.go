package distmem

import (
	"testing"

	"github.com/asynclinalg/asyrgs/internal/dense"
	"github.com/asynclinalg/asyrgs/internal/fault"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// TestConvergesUnderMessageLoss is the paper's tolerance claim finally
// asserted under injected loss: with ~10% of update messages dropped
// the async iteration must still reach tol, inside a relaxed round
// budget (the clean run below converges well under half of it).
func TestConvergesUnderMessageLoss(t *testing.T) {
	a := workload.RandomSPD(200, 5, 1.5, 4)
	b := workload.RandomRHS(200, 5)
	want, err := dense.SolveCSR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	cfg := Config{Workers: 4, QueueCap: 8, Seed: 6, Fault: fault.Config{Seed: 21, DropRate: 0.1}}
	res, rounds, err := SolveToTol(a, x, b, 1e-8, 10, 200, cfg)
	if err != nil {
		t.Fatalf("after %d rounds: %v (res %v)", rounds, err, res)
	}
	if e := vec.RelErr(x, want); e > 1e-6 {
		t.Fatalf("solution error %v under 10%% drops", e)
	}
	if res.MessagesDropped == 0 {
		t.Fatal("DropRate 0.1 dropped nothing; the test exercised no faults")
	}
	total := res.MessagesSent + res.MessagesDropped
	if rate := float64(res.MessagesDropped) / float64(total); rate < 0.05 || rate > 0.15 {
		t.Fatalf("observed drop rate %.4f, want ~0.10", rate)
	}
}

// TestConvergesUnderMessageDelay: delayed updates are delivered at the
// end of their round — the maximum in-round staleness — and the
// iteration still converges. Delayed messages count in MessagesSent
// when they land, so sent+dropped covers every committed update.
func TestConvergesUnderMessageDelay(t *testing.T) {
	a := workload.RandomSPD(160, 4, 1.5, 7)
	b := workload.RandomRHS(160, 8)
	x := make([]float64, 160)
	cfg := Config{
		Workers: 4, QueueCap: 8, Seed: 9,
		Fault: fault.Config{Seed: 22, DelayRate: 0.2},
	}
	res, rounds, err := SolveToTol(a, x, b, 1e-8, 10, 200, cfg)
	if err != nil {
		t.Fatalf("after %d rounds: %v (res %v)", rounds, err, res)
	}
	if res.MessagesDelayed == 0 {
		t.Fatal("DelayRate 0.2 delayed nothing")
	}
	if res.MessagesDropped != 0 {
		t.Fatalf("delay-only config dropped %d messages", res.MessagesDropped)
	}
}

// TestFaultAccountingDeterministic pins the replay property: under a
// fixed (config, seed) every run loses and defers exactly the same
// messages, because each decision is a pure function of (rank,
// iteration, peer) — no wall clock, no scheduler dependence.
func TestFaultAccountingDeterministic(t *testing.T) {
	a := workload.RandomSPD(120, 4, 1.5, 10)
	b := workload.RandomRHS(120, 11)
	run := func() Result {
		x := make([]float64, 120)
		res, err := Solve(a, x, b, 10, Config{
			Workers: 4, QueueCap: 4, Seed: 12,
			Fault: fault.Config{Seed: 33, DropRate: 0.1, DelayRate: 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.MessagesDropped != r2.MessagesDropped || r1.MessagesDelayed != r2.MessagesDelayed {
		t.Fatalf("fault accounting not deterministic: %d/%d dropped, %d/%d delayed",
			r1.MessagesDropped, r2.MessagesDropped, r1.MessagesDelayed, r2.MessagesDelayed)
	}
	if r1.MessagesSent != r2.MessagesSent {
		t.Fatalf("sent counts differ under a fixed fault schedule: %d vs %d", r1.MessagesSent, r2.MessagesSent)
	}
	// Every committed update is accounted exactly once per peer: w·(w−1)
	// fan-out over sweeps·n iterations, minus nothing.
	iters := uint64(10 * 120) // sweeps · n, summed over owners
	if got := r1.MessagesSent + r1.MessagesDropped; got != iters*3 {
		t.Fatalf("sent+dropped = %d, want %d (every update × 3 peers)", got, iters*3)
	}
}

// TestOwnerBlocksSurviveDrops: drops lose peer views, never owner
// state — the assembled solution still takes every coordinate from its
// sole updater, so even 50% loss yields a consistent (if slower)
// iteration that makes progress.
func TestOwnerBlocksSurviveDrops(t *testing.T) {
	a := workload.RandomSPD(160, 4, 1.5, 13)
	b := workload.RandomRHS(160, 14)
	x := make([]float64, 160)
	res, err := Solve(a, x, b, 10, Config{
		Workers: 4, QueueCap: 4, Seed: 15,
		Fault: fault.Config{Seed: 44, DropRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual >= 1 {
		t.Fatalf("no progress under 50%% loss: residual %v", res.Residual)
	}
}

// TestZeroFaultConfigIsFree: a zero Fault config must leave results
// byte-identical to the pre-fault path (nil injectors, no accounting).
func TestZeroFaultConfigIsFree(t *testing.T) {
	a := workload.RandomSPD(80, 4, 1.5, 17)
	b := workload.RandomRHS(80, 18)
	solve := func(cfg Config) ([]float64, Result) {
		x := make([]float64, 80)
		res, err := Solve(a, x, b, 5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}
	_, r1 := solve(Config{Workers: 4, QueueCap: 4, Seed: 19})
	_, r2 := solve(Config{Workers: 4, QueueCap: 4, Seed: 19, Fault: fault.Config{Seed: 99}})
	if r2.MessagesDropped != 0 || r2.MessagesDelayed != 0 {
		t.Fatalf("zero-rate fault config injected: %+v", r2)
	}
	// Message counts are schedule-independent (every committed update
	// fans out to every peer); solutions are not bit-identical because
	// async application order varies run to run even without faults.
	if r1.MessagesSent != r2.MessagesSent {
		t.Fatalf("message counts differ: %d vs %d", r1.MessagesSent, r2.MessagesSent)
	}
}

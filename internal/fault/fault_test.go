package fault

import "testing"

// TestDeterministicSchedule pins the core property: the fault schedule
// is a pure function of (config, site, op-index).
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.1, DelayRate: 0.3}
	a := New(cfg, "distmem.rank0")
	b := New(cfg, "distmem.rank0")
	for i := uint64(0); i < 4096; i++ {
		if a.DecideAt(i) != b.DecideAt(i) {
			t.Fatalf("schedule diverged at op %d", i)
		}
	}
}

// TestSitesIndependent verifies two sites under one seed draw distinct
// schedules (folding the site label into the stream key works).
func TestSitesIndependent(t *testing.T) {
	cfg := Config{Seed: 7, DropRate: 0.5}
	r0 := New(cfg, "distmem.rank0")
	r1 := New(cfg, "distmem.rank1")
	same := 0
	const n = 4096
	for i := uint64(0); i < n; i++ {
		if r0.DecideAt(i).Drop == r1.DecideAt(i).Drop {
			same++
		}
	}
	if same == n {
		t.Fatalf("sites distmem.rank0 and distmem.rank1 share an identical %d-op schedule", n)
	}
}

// TestRatesConverge checks the injected rates land near their targets
// over a long schedule — the decisions are real Bernoulli draws, not a
// fixed stride.
func TestRatesConverge(t *testing.T) {
	in := New(Config{Seed: 3, DropRate: 0.1, DelayRate: 0.2}, "rates")
	const n = 100000
	var drops, delays int
	for i := uint64(0); i < n; i++ {
		d := in.DecideAt(i)
		if d.Drop {
			drops++
		}
		if d.Delay {
			delays++
		}
	}
	if got := float64(drops) / n; got < 0.08 || got > 0.12 {
		t.Errorf("drop rate %.4f, want ~0.10", got)
	}
	if got := float64(delays) / n; got < 0.18 || got > 0.22 {
		t.Errorf("delay rate %.4f, want ~0.20", got)
	}
}

// TestNilInjector pins the nil-receiver contract: a disabled site needs
// no guards anywhere.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if d := in.DecideAt(0); d != (Decision{}) {
		t.Fatalf("nil injector decided %+v", d)
	}
	if New(Config{}, "off") != nil {
		t.Fatal("New with a zero config must return the nil injector")
	}
}

package claim

import "testing"

func TestExplicitWins(t *testing.T) {
	if got := SizeFor(7, 1_000_000, 8); got != 7 {
		t.Fatalf("explicit chunk: got %d, want 7", got)
	}
	if got := SizeFor(300, 1000, 1); got != 300 {
		t.Fatalf("explicit chunk may exceed the auto size: got %d, want 300", got)
	}
	if got := SizeFor(300, 10, 1); got != 10 {
		t.Fatalf("explicit chunk beyond the budget claims the whole range: got %d, want 10", got)
	}
	// A huge range does not let a huge explicit chunk size an unbounded
	// direction buffer: the chunk stops at maxChunkCap.
	if got := SizeFor(1<<40, 1<<40, 2); got != maxChunkCap {
		t.Fatalf("huge explicit chunk over a huge range: got %d, want %d", got, maxChunkCap)
	}
}

func TestLowerBoundOne(t *testing.T) {
	if got := SizeFor(0, 10, 64); got != 1 {
		t.Fatalf("tiny budgets must claim single iterations: got %d", got)
	}
}

// The auto chunk is total/(16·workers) up to maxChunkCap: a benchmark
// workload's one-sweep call on an n=20000 system at 2 workers claims 625.
func TestAutoChunk(t *testing.T) {
	if got := SizeFor(0, 20000, 2); got != 625 {
		t.Fatalf("one sweep of n=20000 at 2 workers: got %d, want 625", got)
	}
	if got := SizeFor(0, 1<<40, 1); got != maxChunkCap {
		t.Fatalf("huge budget: got %d, want %d", got, maxChunkCap)
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int{
		"512K":  512 << 10,
		"1024K": 1 << 20,
		"2M":    2 << 20,
		"1G":    1 << 30,
		"65536": 65536,
		"":      0,
		"junk":  0,
		"-4K":   0,
		"K":     0,
		"0":     0,
	}
	for in, want := range cases {
		if got := parseCacheSize(in); got != want {
			t.Fatalf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestL2ProbeMemoizedAndPositive(t *testing.T) {
	a, b := L2CacheBytes(), L2CacheBytes()
	if a != b || a <= 0 {
		t.Fatalf("L2CacheBytes must be positive and stable: %d, %d", a, b)
	}
}

func TestProbeL2MissingDir(t *testing.T) {
	if got := probeL2(t.TempDir() + "/nonexistent"); got != fallbackL2 {
		t.Fatalf("missing sysfs must fall back: got %d", got)
	}
}

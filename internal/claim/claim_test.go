package claim

import "testing"

func TestExplicitWins(t *testing.T) {
	if got := SizeFor(7, 1_000_000, 8, 64); got != 7 {
		t.Fatalf("explicit chunk: got %d, want 7", got)
	}
	if got := SizeFor(300, 1000, 1, 0); got != 300 {
		t.Fatalf("explicit chunk may exceed the cache-aware cap: got %d, want 300", got)
	}
	if got := SizeFor(300, 10, 1, 0); got != 10 {
		t.Fatalf("explicit chunk beyond the budget claims the whole range: got %d, want 10", got)
	}
	// A huge range does not let a huge explicit chunk size an unbounded
	// direction buffer: the chunk stops at maxChunkCap.
	if got := SizeFor(1<<40, 1<<40, 2, 64); got != maxChunkCap {
		t.Fatalf("huge explicit chunk over a huge range: got %d, want %d", got, maxChunkCap)
	}
}

func TestLowerBoundOne(t *testing.T) {
	if got := SizeFor(0, 10, 64, 64); got != 1 {
		t.Fatalf("tiny budgets must claim single iterations: got %d", got)
	}
}

func TestLegacyCapWithoutFootprint(t *testing.T) {
	if got := SizeFor(0, 1<<30, 1, 0); got != 256 {
		t.Fatalf("rowBytes=0 must keep the legacy 256 cap: got %d", got)
	}
	if MaxChunk(0) != 256 || MaxChunk(-5) != 256 {
		t.Fatal("MaxChunk must fall back to 256 without a footprint estimate")
	}
}

func TestCacheAwareCapShrinksWithRowBytes(t *testing.T) {
	small := MaxChunk(64)
	big := MaxChunk(64 << 10)
	if small < big {
		t.Fatalf("cap must not grow with row footprint: %d < %d", small, big)
	}
	for _, rb := range []int{1, 64, 4 << 10, 1 << 20} {
		c := MaxChunk(rb)
		if c < minChunkCap || c > maxChunkCap {
			t.Fatalf("MaxChunk(%d) = %d outside [%d, %d]", rb, c, minChunkCap, maxChunkCap)
		}
	}
	// A huge per-iteration footprint must pin the cap at the floor.
	if got := MaxChunk(1 << 30); got != minChunkCap {
		t.Fatalf("huge rows: got %d, want %d", got, minChunkCap)
	}
}

func TestSizeForUsesCap(t *testing.T) {
	rb := 1 << 20 // forces the minChunkCap floor regardless of probed L2
	if got := SizeFor(0, 1<<40, 1, rb); got != minChunkCap {
		t.Fatalf("huge budget must clamp to the cache-aware cap: got %d", got)
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

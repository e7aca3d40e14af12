package rng

import (
	"math"
	"testing"
)

// TestPhiloxKnownAnswer pins the generator to the Random123 reference
// known-answer vectors for philox4x32-10.
func TestPhiloxKnownAnswer(t *testing.T) {
	cases := []struct {
		ctr  [4]uint32
		key  [2]uint32
		want [4]uint32
	}{
		{
			ctr:  [4]uint32{0, 0, 0, 0},
			key:  [2]uint32{0, 0},
			want: [4]uint32{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8},
		},
		{
			ctr:  [4]uint32{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
			key:  [2]uint32{0xffffffff, 0xffffffff},
			want: [4]uint32{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd},
		},
		{
			// The "pi" test vector from the Random123 kat_vectors file.
			ctr:  [4]uint32{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
			key:  [2]uint32{0xa4093822, 0x299f31d0},
			want: [4]uint32{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1},
		},
	}
	for i, c := range cases {
		var got [4]uint32
		got[0], got[1], got[2], got[3] = philox(c.ctr[0], c.ctr[1], c.ctr[2], c.ctr[3], c.key[0], c.key[1])
		if got != c.want {
			t.Errorf("case %d: philox = %08x, want %08x", i, got, c.want)
		}
	}
}

// TestStreamPinned pins Uint64At, Uint64PairAt and IntnAt at low, high
// and 2³²-straddling indices for a seed with a zero high key word and one
// with both key words set, so a change to how a Stream builds its counter
// or key cannot go unseen.
func TestStreamPinned(t *testing.T) {
	cases := []struct {
		seed, i    uint64
		first, snd uint64 // Uint64PairAt(i); Uint64At(i) is first
		intn       int    // IntnAt(i, 120147)
	}{
		{0x1, 0x0, 0xe50a0ebce3e80670, 0xb615aa2795f222c0, 107493},
		{0x1, 0x1, 0xdfc5ccbeac08141b, 0xa7f6609379c07a47, 105021},
		{0x1, 0x100000005, 0xe3c40733c17b6722, 0x176a7b1d34d2ae52, 106895},
		{0x1, 0x8000000000000000, 0x340e401734a4d61d, 0xe9f52b96f6945830, 24430},
		{0x9e3779b97f4a7c15, 0x0, 0x4f1a097e40892754, 0x2f9e2f43261374e1, 37124},
		{0x9e3779b97f4a7c15, 0x1, 0xc3eb0c5eee03f1f9, 0x9dc0d8d6e467d641, 91949},
		{0x9e3779b97f4a7c15, 0x100000005, 0xdea2ed8662db8890, 0x3fb02be24ced4980, 104488},
		{0x9e3779b97f4a7c15, 0x8000000000000000, 0xda69a706055f70b3, 0x81162fa68cd0f16d, 102506},
	}
	for _, c := range cases {
		s := NewStream(c.seed)
		if got := s.Uint64At(c.i); got != c.first {
			t.Errorf("seed %#x: Uint64At(%#x) = %#x, want %#x", c.seed, c.i, got, c.first)
		}
		if a, b := s.Uint64PairAt(c.i); a != c.first || b != c.snd {
			t.Errorf("seed %#x: Uint64PairAt(%#x) = %#x, %#x, want %#x, %#x", c.seed, c.i, a, b, c.first, c.snd)
		}
		if got := s.IntnAt(c.i, 120147); got != c.intn {
			t.Errorf("seed %#x: IntnAt(%#x, 120147) = %d, want %d", c.seed, c.i, got, c.intn)
		}
	}
}

func TestStreamDeterministicRandomAccess(t *testing.T) {
	s := NewStream(12345)
	// Random access in any order must agree with itself.
	a := s.Uint64At(7)
	b := s.Uint64At(3)
	if s.Uint64At(7) != a || s.Uint64At(3) != b {
		t.Fatal("Stream.Uint64At must be a pure function of the index")
	}
	if a == b {
		t.Fatal("distinct indices should (overwhelmingly) give distinct values")
	}
	// Two streams with different seeds must differ.
	if NewStream(1).Uint64At(0) == NewStream(2).Uint64At(0) {
		t.Fatal("different seeds should give different streams")
	}
}

func TestStreamConcurrentUse(t *testing.T) {
	s := NewStream(99)
	want := make([]uint64, 64)
	for i := range want {
		want[i] = s.Uint64At(uint64(i))
	}
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok := true
			for i := range want {
				if s.Uint64At(uint64(i)) != want[i] {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent reads disagreed — Stream must be immutable")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(7)
	for i := uint64(0); i < 10_000; i++ {
		v := s.Float64At(i)
		if v < 0 || v >= 1 {
			t.Fatalf("Float64At(%d) = %v outside [0,1)", i, v)
		}
	}
}

func TestIntnAtBounds(t *testing.T) {
	s := NewStream(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := uint64(0); i < 2000; i++ {
			v := s.IntnAt(i, n)
			if v < 0 || v >= n {
				t.Fatalf("IntnAt(%d,%d) = %d out of range", i, n, v)
			}
		}
	}
}

func TestIntnAtPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntnAt(0) should panic")
		}
	}()
	NewStream(0).IntnAt(0, 0)
}

func TestIntnAtUniformity(t *testing.T) {
	// Chi-square sanity check on 16 buckets: with 160k draws the statistic
	// has 15 degrees of freedom; 60 is far beyond any plausible tail, so
	// the test is robust while still catching gross bias.
	const buckets = 16
	const draws = 160_000
	s := NewStream(20240601)
	counts := make([]float64, buckets)
	for i := uint64(0); i < draws; i++ {
		counts[s.IntnAt(i, buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	if chi2 > 60 {
		t.Fatalf("IntnAt looks biased: chi2 = %v over %d buckets", chi2, buckets)
	}
}

func TestFloat64Moments(t *testing.T) {
	s := NewStream(5150)
	const n = 200_000
	var sum, sumsq float64
	for i := uint64(0); i < n; i++ {
		v := s.Float64At(i)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("variance = %v, want ≈ 1/12", variance)
	}
}

func TestSequentialMatchesStream(t *testing.T) {
	g := NewSequential(31337)
	s := NewStream(31337)
	for i := uint64(0); i < 100; i++ {
		a, b := s.Uint64PairAt(i)
		if got := g.Uint64(); got != a {
			t.Fatalf("block %d first half: got %x want %x", i, got, a)
		}
		if got := g.Uint64(); got != b {
			t.Fatalf("block %d second half: got %x want %x", i, got, b)
		}
	}
}

func TestSequentialIntnBounds(t *testing.T) {
	g := NewSequential(1)
	for i := 0; i < 10_000; i++ {
		if v := g.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn = %d", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	g := NewSequential(777)
	const n = 200_000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ≈ 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewSequential(4)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := g.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestStreamIndependenceAcrossSeeds(t *testing.T) {
	// Correlation between two differently keyed streams should be tiny.
	s1, s2 := NewStream(1), NewStream(2)
	const n = 100_000
	var dot float64
	for i := uint64(0); i < n; i++ {
		dot += (s1.Float64At(i) - 0.5) * (s2.Float64At(i) - 0.5)
	}
	corr := dot / n * 12 // normalize by variance 1/12
	if math.Abs(corr) > 0.02 {
		t.Fatalf("streams with different seeds look correlated: %v", corr)
	}
}

// philoxSink keeps BenchmarkPhiloxBlock's blocks live.
var philoxSink uint32

func BenchmarkPhiloxBlock(b *testing.B) {
	var acc uint32
	for i := 0; i < b.N; i++ {
		out, _, _, _ := philox(uint32(i), 0, 0, 0, 1, 2)
		acc ^= out
	}
	philoxSink = acc
}

func BenchmarkStreamIntnAt(b *testing.B) {
	s := NewStream(1)
	var acc int
	for i := 0; i < b.N; i++ {
		acc ^= s.IntnAt(uint64(i), 120147)
	}
	_ = acc
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPow2HistogramBasics(t *testing.T) {
	h := Pow2Histogram{Counts: []uint64{90, 5, 3, 2}}
	if h.Total() != 100 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.FractionZero(); got != 0.9 {
		t.Fatalf("FractionZero = %v", got)
	}
	// 90% of mass is at zero, so the 0.5-quantile bound is 0.
	if got := h.QuantileUpperBound(0.5); got != 0 {
		t.Fatalf("q50 bound = %d", got)
	}
	// The 0.99 quantile needs 99 observations: 90+5+3 = 98 < 99, so it
	// lands in bucket 3 → upper edge 8.
	if got := h.QuantileUpperBound(0.99); got != 8 {
		t.Fatalf("q99 bound = %d, want 8", got)
	}
	mean := h.MeanUpperBound()
	want := (5.0*2 + 3.0*4 + 2.0*8) / 100
	if math.Abs(mean-want) > 1e-12 {
		t.Fatalf("mean bound = %v, want %v", mean, want)
	}
}

func TestPow2HistogramEmpty(t *testing.T) {
	h := Pow2Histogram{}
	if h.Total() != 0 || h.FractionZero() != 0 || h.QuantileUpperBound(0.5) != 0 || h.MeanUpperBound() != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
}

func TestQuantileUpperBoundMonotoneProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		if len(counts) > 20 {
			counts = counts[:20]
		}
		h := Pow2Histogram{Counts: make([]uint64, len(counts))}
		for i, c := range counts {
			h.Counts[i] = uint64(c)
		}
		prev := uint64(0)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			b := h.QuantileUpperBound(q)
			if b < prev {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Package stats turns the solver's measured power-of-two histograms into
// reportable numbers: delay distributions from core's MeasureDelay, and
// the serving layer's latency histograms. The paper's conclusion argues
// that the worst-case delay τ is a pessimistic summary of real executions
// and that delay *distributions* are more descriptive. It has no moments
// or sample quantiles: only bucket bounds.
package stats

import "math"

// Pow2Histogram interprets counts as a power-of-two histogram (bucket 0 =
// value 0, bucket k ≥ 1 = values in [2^(k-1), 2^k)), the format produced
// by core.Solver.DelayHistogram.
type Pow2Histogram struct {
	Counts []uint64
}

// Total returns the number of observations.
func (h Pow2Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// FractionZero returns the fraction of observations equal to zero — for a
// delay histogram, the fraction of perfectly fresh reads.
func (h Pow2Histogram) FractionZero() float64 {
	t := h.Total()
	if t == 0 || len(h.Counts) == 0 {
		return 0
	}
	return float64(h.Counts[0]) / float64(t)
}

// QuantileUpperBound returns an upper bound on the q-quantile: the upper
// edge of the first bucket whose cumulative count reaches q·total.
func (h Pow2Histogram) QuantileUpperBound(q float64) uint64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(t)))
	var cum uint64
	for k, c := range h.Counts {
		cum += c
		if cum >= target {
			if k == 0 {
				return 0
			}
			return 1 << uint(k) // upper edge of bucket k
		}
	}
	if n := len(h.Counts); n > 0 {
		return 1 << uint(n)
	}
	return 0
}

// MeanUpperBound returns an upper bound on the mean using each bucket's
// upper edge.
func (h Pow2Histogram) MeanUpperBound() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var sum float64
	for k, c := range h.Counts {
		if k == 0 {
			continue
		}
		sum += float64(c) * float64(uint64(1)<<uint(k))
	}
	return sum / float64(t)
}

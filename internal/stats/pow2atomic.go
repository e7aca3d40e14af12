package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Pow2Bucket returns the histogram bucket of a value under the package's
// power-of-two convention: bucket 0 holds the value 0, bucket k ≥ 1 holds
// values in [2^(k-1), 2^k).
func Pow2Bucket(v uint64) int { return bits.Len64(v) }

// AtomicPow2Histogram is a fixed-size power-of-two histogram safe for
// concurrent Observe calls — the recording shape the serving layer uses
// for request latencies (in microseconds). It
// shares the bucket convention of Pow2Histogram, which a Snapshot
// returns for reporting.
//
// All state is atomic: Observe is lock-free, and Snapshot reads each
// bucket atomically in one pass so the quantiles computed from it are
// internally consistent (no torn multi-word reads; concurrent Observes
// land either wholly before or wholly after the snapshot's pass over
// their bucket).
type AtomicPow2Histogram struct {
	counts [65]atomic.Uint64 // bucket 64 holds values ≥ 2^63
	sum    atomic.Uint64
}

// Observe folds one observation into the histogram.
func (h *AtomicPow2Histogram) Observe(v uint64) {
	h.counts[Pow2Bucket(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration folds one duration into the histogram under the
// package's latency convention (microseconds); negative durations clamp
// to zero so a stepped-on monotonic clock cannot corrupt the buckets.
func (h *AtomicPow2Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Microseconds()))
}

// Sum returns the running total of all observed values.
func (h *AtomicPow2Histogram) Sum() uint64 { return h.sum.Load() }

// Snapshot returns the current counts as a Pow2Histogram, trimmed to the
// highest non-empty bucket.
func (h *AtomicPow2Histogram) Snapshot() Pow2Histogram {
	counts := make([]uint64, len(h.counts))
	top := 0
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		if counts[i] != 0 {
			top = i
		}
	}
	return Pow2Histogram{Counts: counts[:top+1]}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated by linear
// interpolation within the bucket that contains it: bucket k ≥ 1 spans
// [2^(k-1), 2^k), and the returned value assumes observations are spread
// uniformly across the bucket. Unlike QuantileUpperBound this is a point
// estimate, not a bound; it is exact for bucket 0 (the value 0) and never
// exceeds the bucket's upper edge. Returns 0 for an empty histogram.
func (h Pow2Histogram) Quantile(q float64) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(t)
	if target < 1 {
		target = 1
	}
	var cum float64
	for k, c := range h.Counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			if k == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(k-1))
			return lo + (target-cum)/fc*lo // lo + frac·(hi−lo), hi = 2·lo
		}
		cum += fc
	}
	// Rounding pushed the target past the last bucket: return that
	// bucket's upper edge (bucket k spans up to 2^k).
	return math.Ldexp(1, len(h.Counts)-1)
}

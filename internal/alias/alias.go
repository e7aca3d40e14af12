// Package alias implements Walker/Vose alias tables: O(n) construction,
// O(1) weighted sampling. The solver packages use it for the
// Leventhal–Lewis diagonal-weighted draw (core), the Strohmer–Vershynin
// row-norm draw (kaczmarz) and the column-norm draw of the §8
// least-squares coordinate descent (lsq), replacing the O(log n) binary
// search over a CDF that used to sit on every iteration of the hot loop.
//
// A pick stays a pure function of (stream, j): both randoms it needs —
// the slot index and the acceptance threshold — come from the two 64-bit
// halves of the single 128-bit Philox block at counter j, so every
// worker count and every claiming granularity replays the identical
// direction multiset, exactly like the CDF draw it replaces (the
// mapping from block to coordinate differs, the distribution does not).
package alias

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/asynclinalg/asyrgs/internal/rng"
)

// Errors returned by New for weight vectors that cannot define a
// sampling distribution.
var (
	ErrEmpty          = errors.New("alias: empty weight vector")
	ErrNegativeWeight = errors.New("alias: negative weight")
	ErrBadWeight      = errors.New("alias: non-finite weight")
	ErrZeroTotal      = errors.New("alias: weights sum to zero (non-positive trace)")
)

// Table is a Vose alias table over n slots. Immutable after construction
// and safe for concurrent use by any number of goroutines.
type Table struct {
	// prob[i] is the probability, scaled to [0,1], of keeping slot i when
	// the uniform slot draw lands on it; otherwise the draw is redirected
	// to alias[i].
	prob  []float64
	alias []int32
}

// New builds the alias table for the (unnormalized) weight vector w in
// O(n) time using Vose's two-worklist construction. Weights must be
// finite and non-negative with a positive sum; a zero weight is legal
// and that slot is simply never drawn.
func New(w []float64) (*Table, error) {
	n := len(w)
	if n == 0 {
		return nil, ErrEmpty
	}
	var total float64
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: entry %d is %v", ErrBadWeight, i, v)
		}
		if v < 0 {
			return nil, fmt.Errorf("%w: entry %d is %g", ErrNegativeWeight, i, v)
		}
		total += v
	}
	if total <= 0 {
		return nil, ErrZeroTotal
	}

	t := &Table{prob: make([]float64, n), alias: make([]int32, n)}
	// Scaled weights: p[i] = w[i]·n/total, so the average is exactly 1.
	// Slots below 1 are "small" and get topped up by a "large" donor.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	scale := float64(n) / total
	for i, v := range w {
		scaled[i] = v * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		// The donor gave (1 − scaled[s]) of its mass to slot s.
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are exactly 1 up to rounding; they keep their own slot.
	for _, l := range large {
		t.prob[l] = 1
		t.alias[l] = l
	}
	for _, s := range small {
		t.prob[s] = 1
		t.alias[s] = s
	}
	return t, nil
}

// Pick returns the slot drawn at stream index j: one Philox block, one
// multiply-shift reduction, one comparison — O(1) regardless of n.
func (t *Table) Pick(stream rng.Stream, j uint64) int {
	u1, u2 := stream.Uint64PairAt(j)
	return t.PickUints(u1, u2)
}

// PickUints maps two independent uniform 64-bit values to a slot. It is
// the buffered-path entry point: chunked workers generate their randoms
// in one pass and feed them through here without re-invoking Philox.
func (t *Table) PickUints(u1, u2 uint64) int {
	i := reduce(u1, len(t.prob))
	if float64(u2>>11)/(1<<53) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// reduce maps a uniform 64-bit value to [0,n) with Lemire's
// multiply-shift (unbiased to 2⁻⁶⁴), matching rng.Stream.IntnAt.
func reduce(u uint64, n int) int {
	hi, _ := bits.Mul64(u, uint64(n))
	return int(hi)
}

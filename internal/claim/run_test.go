package claim

import (
	"sync/atomic"
	"testing"
)

// TestRunCoversRangeOnce checks the claiming loop's contract: every index
// of [start, end) reaches body exactly once, no block is longer than
// chunk, and with owned each worker sees only its own share. An empty
// range never calls body.
//
// Regime: schedule-independent. Nothing here depends on how the workers
// interleave; the assertions hold for every order the scheduler picks.
func TestRunCoversRangeOnce(t *testing.T) {
	cases := []struct {
		name           string
		start, end     uint64
		workers, chunk int
	}{
		{"offset start", 1000, 1250, 3, 7},
		{"more workers than indices", 5, 8, 8, 2},
		{"chunk larger than range", 40, 50, 2, 1000},
		{"chunk one", 0, 64, 4, 1},
		{"zero chunk claims singly", 0, 9, 2, 0},
		{"empty range", 7, 7, 4, 8},
	}
	for _, tc := range cases {
		for _, owned := range []bool{false, true} {
			total := tc.end - tc.start
			seen := make([]atomic.Uint64, total)
			Run(tc.start, tc.end, tc.workers, tc.chunk, owned, func(w int, lo, hi uint64) {
				if w < 0 || w >= tc.workers {
					t.Errorf("%s owned=%v: worker %d outside [0, %d)", tc.name, owned, w, tc.workers)
					return
				}
				if lo >= hi || lo < tc.start || hi > tc.end {
					t.Errorf("%s owned=%v: block [%d, %d) outside [%d, %d)", tc.name, owned, lo, hi, tc.start, tc.end)
					return
				}
				if hi-lo > uint64(max(tc.chunk, 1)) {
					t.Errorf("%s owned=%v: block [%d, %d) longer than chunk %d", tc.name, owned, lo, hi, tc.chunk)
				}
				if owned {
					wlo := tc.start + uint64(w)*total/uint64(tc.workers)
					whi := tc.start + uint64(w+1)*total/uint64(tc.workers)
					if lo < wlo || hi > whi {
						t.Errorf("%s: worker %d got [%d, %d) outside its share [%d, %d)", tc.name, w, lo, hi, wlo, whi)
					}
				}
				for j := lo; j < hi; j++ {
					seen[j-tc.start].Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("%s owned=%v: index %d reached body %d times", tc.name, owned, tc.start+uint64(i), got)
				}
			}
		}
	}
}

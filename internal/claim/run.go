package claim

import (
	"sync"
	"sync/atomic"
)

// Run executes the global iteration indices [start, end) on workers
// goroutines and returns once every one has finished. Each worker hands
// body(worker, lo, hi) blocks of at most chunk consecutive indices; every
// index of the range reaches body exactly once.
//
// By default the workers race over one shared counter, one atomic add per
// block: whoever is scheduled claims the next block, so the budget is
// spent at the rate the machine allows. With owned, worker w instead walks
// only its own share [start+w·total/workers, start+(w+1)·total/workers).
// Partitioned solvers tie coordinates to workers, and a shared counter
// would let a starved scheduler spend the whole budget inside one block;
// a per-worker share gives every block its budget whatever the
// scheduling, as a distributed deployment would.
func Run(start, end uint64, workers, chunk int, owned bool, body func(worker int, lo, hi uint64)) {
	if start >= end {
		return
	}
	total := end - start
	workers = max(workers, 1)
	// A chunk beyond the range already claims all of it; the clamp also
	// keeps base+chunk from overflowing.
	chunk = int(min(uint64(max(chunk, 1)), total))
	var counter atomic.Uint64
	counter.Store(start)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if owned {
				lo := start + uint64(w)*total/uint64(workers)
				hi := start + uint64(w+1)*total/uint64(workers)
				for base := lo; base < hi; base += uint64(chunk) {
					body(w, base, min(base+uint64(chunk), hi))
				}
				return
			}
			//asyrgs:boundedloop the claimed counter is monotone; every pass claims chunk>=1 indices and exits once base passes end
			for {
				base := counter.Add(uint64(chunk)) - uint64(chunk)
				if base >= end {
					return
				}
				body(w, base, min(base+uint64(chunk), end))
			}
		}(w)
	}
	wg.Wait()
}

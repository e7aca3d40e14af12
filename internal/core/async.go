package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// AsyncSweeps runs sweeps·n asynchronous iterations of AsyRGS with
// Options.Workers goroutines sharing the iterate x, then returns once every
// worker has drained. This is the inconsistent-read execution the paper
// evaluates: entries of x are read with plain loads while other workers
// update them, writes are atomic CAS adds (unless Options.NonAtomic), and
// there is no coordination beyond the global iteration counter that hands
// out direction indices.
//
// Because direction d_j is a pure function of (seed, j), the multiset of
// directions consumed is identical for every worker count; only the
// interleaving (the delays k(j)/K(j) of the governing iterations (8)/(9))
// changes. That is precisely the controlled comparison of the paper's §9.
func (s *Solver) AsyncSweeps(x, b []float64, sweeps int) {
	n := s.a.Rows
	if len(x) != n || len(b) != n {
		panic("core: AsyncSweeps shape mismatch")
	}
	workers := s.opts.Workers
	if workers <= 1 {
		s.Sweeps(x, b, sweeps)
		// A single worker never observes concurrent updates: every
		// iteration has delay zero. Recording them keeps the histogram
		// total invariant to the worker count.
		if s.opts.MeasureDelay {
			s.delayHist[0] += uint64(sweeps) * uint64(n)
		}
		return
	}
	total := uint64(sweeps) * uint64(n)
	start := s.next
	end := start + total

	if p := s.opts.SyncPeriod; p > 0 {
		// Occasional synchronization: run in barriers of p iterations.
		for lo := start; lo < end; lo += uint64(p) {
			hi := lo + uint64(p)
			if hi > end {
				hi = end
			}
			s.runAsyncRange(x, b, lo, hi, workers)
		}
	} else {
		s.runAsyncRange(x, b, start, end, workers)
	}
	s.next = end
	s.sweep += sweeps
}

// runAsyncRange executes global iterations [start,end) across the given
// number of workers and blocks until all have finished.
//
// In the default (uniform/weighted) modes the workers race over a shared
// iteration counter: whoever is scheduled claims the next index, so the
// budget is spent at the maximum rate the machine allows. In partitioned
// mode each worker instead receives its own contiguous slice of the index
// range: ownership ties coordinates to workers, so a shared counter would
// let a starved scheduler spend the whole budget inside one block. A
// per-worker budget guarantees every block receives its share regardless
// of scheduling — which is also how a distributed deployment behaves.
func (s *Solver) runAsyncRange(x, b []float64, start, end uint64, workers int) {
	stream := rng.NewStream(s.opts.Seed)
	smp := s.newSampler(true)
	chunk := s.chunkSize(end - start)
	var wg sync.WaitGroup
	if s.opts.Partitioned && workers > 1 {
		total := end - start
		var committed atomic.Uint64 // for delay measurement only
		for w := 0; w < workers; w++ {
			lo := start + uint64(w)*total/uint64(workers)
			hi := start + uint64(w+1)*total/uint64(workers)
			wg.Add(1)
			go func(w int, lo, hi uint64) {
				defer wg.Done()
				s.asyncWorkerOwned(x, b, stream, smp, lo, hi, w, chunk, &committed)
			}(w, lo, hi)
		}
		wg.Wait()
		return
	}
	var counter atomic.Uint64
	counter.Store(start)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.asyncWorker(x, b, stream, smp, &counter, end, w, chunk)
		}(w)
	}
	wg.Wait()
}

// asyncWorkerOwned runs the partitioned-mode inner loop: a fixed index
// slice [lo,hi) and single-writer updates within the worker's block. The
// owned range is walked chunk indices at a time so the direction buffer
// is generated in one pass per block, like the shared-counter path.
func (s *Solver) asyncWorkerOwned(x, b []float64, stream rng.Stream, smp sampler, lo, hi uint64, worker, chunk int, committed *atomic.Uint64) {
	a := s.a
	beta := s.beta
	nonAtomic := s.opts.NonAtomic
	measure := s.opts.MeasureDelay
	throttle := s.opts.Throttle
	picks := make([]int32, chunk)
	for base := lo; base < hi; base += uint64(chunk) {
		top := base + uint64(chunk)
		if top > hi {
			top = hi
		}
		m := int(top - base)
		smp.fill(stream, base, picks[:m], worker)
		for t := 0; t < m; t++ {
			j := base + uint64(t)
			if throttle != nil {
				throttle(worker, j)
			}
			r := int(picks[t])
			var dot float64
			if nonAtomic {
				dot = a.RowDot(r, x)
			} else {
				dot = a.RowDotAtomic(r, x)
			}
			gamma := (b[r] - dot) * s.invD[r]
			if nonAtomic {
				x[r] += beta * gamma
			} else {
				atomicfloat.Add(&x[r], beta*gamma)
			}
			if measure {
				before := committed.Load()
				after := committed.Add(1)
				var d uint64
				if after > before+1 {
					d = after - before - 1
				}
				s.observeTau(d)
			}
		}
	}
}

// asyncWorker claims blocks of chunk iteration indices from the shared
// counter until the range is exhausted: one CAS per chunk instead of one
// per iteration, with the block's directions generated into a local
// buffer in a single pass. Each iteration is Algorithm 1's body. The
// direction consumed at global index j is unchanged by the chunking —
// the sampler is a pure function of (stream, j) — so every chunk size
// replays the identical direction multiset.
func (s *Solver) asyncWorker(x, b []float64, stream rng.Stream, smp sampler, counter *atomic.Uint64, end uint64, worker, chunk int) {
	a := s.a
	beta := s.beta
	nonAtomic := s.opts.NonAtomic
	measure := s.opts.MeasureDelay
	throttle := s.opts.Throttle
	picks := make([]int32, chunk)
	//asyrgs:boundedloop the claimed counter is monotone; every pass claims chunk>=1 indices and exits once base passes end
	for {
		base := counter.Add(uint64(chunk)) - uint64(chunk)
		if base >= end {
			return
		}
		top := base + uint64(chunk)
		if top > end {
			top = end
		}
		m := int(top - base)
		smp.fill(stream, base, picks[:m], worker)
		for t := 0; t < m; t++ {
			j := base + uint64(t)
			if throttle != nil {
				throttle(worker, j)
			}
			r := int(picks[t])
			// Read phase: other workers may commit updates mid-read — the
			// inconsistent-read model (iteration (9)). Atomic loads cost
			// nothing on mainstream hardware and keep the execution free of
			// data races; the NonAtomic ablation uses genuinely plain
			// accesses, reproducing the paper's §9 experiment exactly.
			var dot float64
			if nonAtomic {
				dot = a.RowDot(r, x)
			} else {
				dot = a.RowDotAtomic(r, x)
			}
			gamma := (b[r] - dot) * s.invD[r]
			if nonAtomic {
				x[r] += beta * gamma
			} else {
				atomicfloat.Add(&x[r], beta*gamma)
			}
			if measure {
				// Updates committed by others while this iteration ran
				// bound the delay this iteration experienced:
				// τ̂ ≥ committed − j. Chunked claiming forces chunk = 1
				// here (see chunkSize), so the counter still counts
				// committed work.
				var d uint64
				if c := counter.Load(); c > j+1 {
					d = c - j - 1
				}
				s.observeTau(d)
			}
		}
	}
}

// observeTau raises the recorded max delay with a CAS loop and counts the
// observation into the power-of-two delay histogram.
func (s *Solver) observeTau(d uint64) {
	atomic.AddUint64(&s.delayHist[bits.Len64(d)], 1)
	for {
		cur := atomic.LoadUint64(&s.tau)
		if d <= cur || atomic.CompareAndSwapUint64(&s.tau, cur, d) {
			return
		}
	}
}

// AsyncSweepsDense is AsyncSweeps for a row-major multi-right-hand-side
// block: all columns share the direction sequence, and each coordinate
// update writes the Cols entries of row r (each atomically unless
// NonAtomic).
func (s *Solver) AsyncSweepsDense(x, b *vec.Dense, sweeps int) {
	n := s.a.Rows
	if x.Rows != n || b.Rows != n || x.Cols != b.Cols {
		panic("core: AsyncSweepsDense shape mismatch")
	}
	workers := s.opts.Workers
	if workers <= 1 {
		s.SweepsDense(x, b, sweeps)
		if s.opts.MeasureDelay {
			s.delayHist[0] += uint64(sweeps) * uint64(n)
		}
		return
	}
	total := uint64(sweeps) * uint64(n)
	start := s.next
	end := start + total
	run := func(lo, hi uint64) {
		stream := rng.NewStream(s.opts.Seed)
		smp := s.newSampler(true)
		chunk := s.chunkSize(hi - lo)
		var wg sync.WaitGroup
		if s.opts.Partitioned && workers > 1 {
			// Per-worker budgets for the same coverage reason as the
			// vector path (see runAsyncRange).
			span := hi - lo
			for w := 0; w < workers; w++ {
				wlo := lo + uint64(w)*span/uint64(workers)
				whi := lo + uint64(w+1)*span/uint64(workers)
				wg.Add(1)
				go func(w int, wlo, whi uint64) {
					defer wg.Done()
					var counter atomic.Uint64
					counter.Store(wlo)
					s.asyncWorkerDense(x, b, stream, smp, &counter, whi, w, chunk)
				}(w, wlo, whi)
			}
			wg.Wait()
			return
		}
		var counter atomic.Uint64
		counter.Store(lo)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s.asyncWorkerDense(x, b, stream, smp, &counter, hi, w, chunk)
			}(w)
		}
		wg.Wait()
	}
	if p := s.opts.SyncPeriod; p > 0 {
		for lo := start; lo < end; lo += uint64(p) {
			hi := lo + uint64(p)
			if hi > end {
				hi = end
			}
			run(lo, hi)
		}
	} else {
		run(start, end)
	}
	s.next = end
	s.sweep += sweeps
}

// asyncWorkerDense is asyncWorker for the row-major multi-RHS block:
// chunked claiming and buffered direction generation around the block
// update body.
func (s *Solver) asyncWorkerDense(x, b *vec.Dense, stream rng.Stream, smp sampler, counter *atomic.Uint64, end uint64, worker, chunk int) {
	c := x.Cols
	a := s.a
	beta := s.beta
	nonAtomic := s.opts.NonAtomic
	measure := s.opts.MeasureDelay
	throttle := s.opts.Throttle
	gamma := make([]float64, c)
	picks := make([]int32, chunk)
	//asyrgs:boundedloop the claimed counter is monotone; every pass claims chunk>=1 indices and exits once base passes end
	for {
		base := counter.Add(uint64(chunk)) - uint64(chunk)
		if base >= end {
			return
		}
		top := base + uint64(chunk)
		if top > end {
			top = end
		}
		m := int(top - base)
		smp.fill(stream, base, picks[:m], worker)
		for t := 0; t < m; t++ {
			j := base + uint64(t)
			if throttle != nil {
				throttle(worker, j)
			}
			r := int(picks[t])
			copy(gamma, b.Row(r))
			if nonAtomic {
				for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
					sparse.Axpy(gamma, x.Row(a.ColIdx[k]), -a.Vals[k])
				}
			} else {
				for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
					sparse.AxpyAtomicRead(gamma, x.Row(a.ColIdx[k]), -a.Vals[k])
				}
			}
			scale := beta * s.invD[r]
			xrow := x.Row(r)
			if nonAtomic {
				sparse.Axpy(xrow, gamma, scale)
			} else {
				for col := 0; col < c; col++ {
					atomicfloat.Add(&xrow[col], scale*gamma[col])
				}
			}
			if measure {
				var d uint64
				if cnt := counter.Load(); cnt > j+1 {
					d = cnt - j - 1
				}
				s.observeTau(d)
			}
		}
	}
}

// SolveAsync iterates asynchronously until the relative residual drops
// below tol or maxSweeps sweeps are spent. The residual check is a
// synchronization point (as in the paper's occasional-synchronization
// scheme), performed every checkEvery sweeps (1 if zero).
func (s *Solver) SolveAsync(x, b []float64, tol float64, maxSweeps, checkEvery int) (Result, error) {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	done := 0
	for done < maxSweeps {
		step := checkEvery
		if done+step > maxSweeps {
			step = maxSweeps - done
		}
		s.AsyncSweeps(x, b, step)
		done += step
		if res := s.Residual(x, b); res <= tol {
			return Result{Sweeps: done, Iterations: s.next, Residual: res, Converged: true, ObservedTau: s.ObservedTau()}, nil
		}
	}
	res := s.Residual(x, b)
	return Result{Sweeps: done, Iterations: s.next, Residual: res, ObservedTau: s.ObservedTau()}, ErrNotConverged
}

// Precondition approximates z ≈ A⁻¹·r by running the configured number of
// AsyRGS sweeps from a zero initial guess. It makes the Solver usable as
// the flexible (nondeterministic, iteration-varying) preconditioner of the
// paper's Flexible-CG experiments; the krylov package consumes it through
// its Preconditioner interface.
func (s *Solver) Precondition(z, r []float64, sweeps int) {
	for i := range z {
		z[i] = 0
	}
	s.AsyncSweeps(z, r, sweeps)
}

package core

import (
	"math/bits"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/claim"
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
	if s.opts.Workers <= 1 {
		s.Sweeps(x, b, sweeps)
		s.countSerialDelays(sweeps)
		return
	}
	a, invD, beta := s.a, s.invD, s.beta
	nonAtomic := s.opts.NonAtomic
	s.runAsync(sweeps, func(worker int, base uint64, picks []int32) {
		for t, p := range picks {
			before := s.begin(worker, base+uint64(t))
			r := int(p)
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
			gamma := (b[r] - dot) * invD[r]
			if nonAtomic {
				x[r] += beta * gamma
			} else {
				atomicfloat.Add(&x[r], beta*gamma)
			}
			s.commit(before)
		}
	})
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
	if s.opts.Workers <= 1 {
		s.SweepsDense(x, b, sweeps)
		s.countSerialDelays(sweeps)
		return
	}
	c := x.Cols
	a, invD, beta := s.a, s.invD, s.beta
	nonAtomic := s.opts.NonAtomic
	// One γ row per worker, a cache line apart so no two workers write
	// the same line.
	stride := c + 8
	gammas := make([]float64, s.opts.Workers*stride)
	s.runAsync(sweeps, func(worker int, base uint64, picks []int32) {
		gamma := gammas[worker*stride : worker*stride+c]
		for t, p := range picks {
			before := s.begin(worker, base+uint64(t))
			r := int(p)
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
			scale := beta * invD[r]
			xrow := x.Row(r)
			if nonAtomic {
				sparse.Axpy(xrow, gamma, scale)
			} else {
				for col := 0; col < c; col++ {
					atomicfloat.Add(&xrow[col], scale*gamma[col])
				}
			}
			s.commit(before)
		}
	})
}

// runAsync executes the next sweeps·n global iterations on Options.Workers
// goroutines through claim.Run and advances the direction stream. Each
// claimed block's directions are generated into the worker's buffer in
// one pass and handed to block with the block's first global index. The
// direction consumed at index j is unchanged by the chunking — the
// sampler is a pure function of (stream, j) — so every chunk size
// replays the identical direction multiset.
//
// In the default (uniform/weighted) modes the workers race over a shared
// counter. In partitioned mode each worker walks its own share of every
// range (claim.Run's owned mode), the sampler drawing inside the worker's
// coordinate block. A positive SyncPeriod splits the budget into
// barriers of SyncPeriod iterations: each range drains before the next
// starts.
func (s *Solver) runAsync(sweeps int, block func(worker int, base uint64, picks []int32)) {
	workers := s.opts.Workers
	start := s.next
	end := start + uint64(sweeps)*uint64(s.a.Rows)
	period := end - start
	if p := s.opts.SyncPeriod; p > 0 {
		period = min(uint64(p), period)
	}
	stream := rng.NewStream(s.opts.Seed)
	smp := s.newSampler(true)
	chunk := claim.SizeFor(s.opts.Chunk, period, workers)
	// One direction buffer per worker, padded a cache line apart.
	stride := chunk + 16
	picks := make([]int32, workers*stride)
	for lo := start; lo < end; lo += period {
		claim.Run(lo, min(lo+period, end), workers, chunk, s.opts.Partitioned, func(w int, blo, bhi uint64) {
			buf := picks[w*stride : w*stride+int(bhi-blo)]
			smp.fill(stream, blo, buf, w)
			block(w, blo, buf)
		})
	}
	s.next = end
}

// begin opens global iteration j on a worker. Under MeasureDelay it
// reads the count of committed updates before anything else, Throttle
// included; commit turns the difference into the iteration's delay.
func (s *Solver) begin(worker int, j uint64) (committed uint64) {
	if s.opts.MeasureDelay {
		committed = s.commits.Load()
	}
	if s.opts.Throttle != nil {
		s.opts.Throttle(worker, j)
	}
	return committed
}

// commit closes an iteration opened by begin. Its delay is the number of
// updates other workers committed in between.
func (s *Solver) commit(committed uint64) {
	if s.opts.MeasureDelay {
		s.observeTau(s.commits.Add(1) - committed - 1)
	}
}

// countSerialDelays records a one-worker run's iterations under
// MeasureDelay. A single worker never observes concurrent updates, so
// every iteration has delay zero; recording them keeps the histogram total
// invariant to the worker count.
func (s *Solver) countSerialDelays(sweeps int) {
	if s.opts.MeasureDelay {
		s.delayHist[0] += uint64(sweeps) * uint64(s.a.Rows)
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

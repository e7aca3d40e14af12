package core

import (
	"math"

	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// seqFillChunk is the direction-buffer block size of the synchronous
// paths. It only amortizes generator and dispatch overhead — the
// direction at index j is a pure function of (seed, j), so the sequence
// is independent of the block size.
const seqFillChunk = 512

// seqPicks returns the solver's reusable direction buffer, lazily sized.
// Retained across Reinit so a recycled Solver's warm solve allocates
// nothing. Synchronous paths only (one goroutine).
func (s *Solver) seqPicks() []int32 {
	if cap(s.pickBuf) < seqFillChunk {
		s.pickBuf = make([]int32, seqFillChunk)
	}
	return s.pickBuf[:seqFillChunk]
}

// Sweeps runs sweeps·n synchronous Randomized Gauss–Seidel iterations on x
// for the system A·x = b, continuing the solver's direction stream. One
// sweep (n single-coordinate updates) costs Θ(nnz(A)) — the same as one
// classical Gauss–Seidel pass.
//
//asyrgs:noalloc
func (s *Solver) Sweeps(x, b []float64, sweeps int) {
	n := s.a.Rows
	if len(x) != n || len(b) != n {
		panic("core: Sweeps shape mismatch")
	}
	stream := rng.NewStream(s.opts.Seed)
	smp := s.newSampler(false)
	picks := s.seqPicks()
	end := s.next + uint64(sweeps)*uint64(n)
	for base := s.next; base < end; {
		m := len(picks)
		if rem := end - base; rem < uint64(m) {
			m = int(rem)
		}
		smp.fill(stream, base, picks[:m], 0)
		for t := 0; t < m; t++ {
			r := int(picks[t])
			gamma := (b[r] - s.a.RowDot(r, x)) * s.invD[r]
			x[r] += s.beta * gamma
		}
		base += uint64(m)
	}
	s.next = end
}

// SweepsDense runs sweeps·n synchronous iterations simultaneously on every
// column of the row-major block X for A·X = B. The direction r chosen at
// global iteration j is shared by all right-hand sides, matching the
// paper's multi-RHS experiment where all 51 systems are solved together.
func (s *Solver) SweepsDense(x, b *vec.Dense, sweeps int) {
	n := s.a.Rows
	if x.Rows != n || b.Rows != n || x.Cols != b.Cols {
		panic("core: SweepsDense shape mismatch")
	}
	c := x.Cols
	stream := rng.NewStream(s.opts.Seed)
	smp := s.newSampler(false)
	gamma := make([]float64, c)
	picks := s.seqPicks()
	end := s.next + uint64(sweeps)*uint64(n)
	for base := s.next; base < end; {
		m := len(picks)
		if rem := end - base; rem < uint64(m) {
			m = int(rem)
		}
		smp.fill(stream, base, picks[:m], 0)
		for t := 0; t < m; t++ {
			r := int(picks[t])
			copy(gamma, b.Row(r))
			for k := s.a.RowPtr[r]; k < s.a.RowPtr[r+1]; k++ {
				sparse.Axpy(gamma, x.Row(s.a.ColIdx[k]), -s.a.Vals[k])
			}
			sparse.Axpy(x.Row(r), gamma, s.beta*s.invD[r])
		}
		base += uint64(m)
	}
	s.next = end
}

// ResidualDense returns ‖B−AX‖_F / ‖B‖_F.
func (s *Solver) ResidualDense(x, b *vec.Dense) float64 {
	ax := vec.NewDense(x.Rows, x.Cols)
	s.a.MulDensePar(ax.Data, x.Data, x.Cols, s.opts.Workers)
	var num, den float64
	for i, v := range ax.Data {
		d := b.Data[i] - v
		num += d * d
		den += b.Data[i] * b.Data[i]
	}
	if den == 0 {
		return vec.Nrm2(ax.Data)
	}
	return math.Sqrt(num / den)
}

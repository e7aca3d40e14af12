// Package core implements the paper's contribution: Randomized
// Gauss–Seidel (Leventhal–Lewis, with the Griebel–Oswald step size β) and
// its shared-memory asynchronous variant AsyRGS.
//
// Algorithm 1 of the paper, executed by every worker against the same
// shared iterate x:
//
//	loop
//	    pick r uniformly from {1,…,n}
//	    read the entries of x touched by row A_r
//	    γ ← (b_r − A_r·x) / A_rr
//	    x_r ← x_r + β·γ            (atomic write, Assumption A-1)
//
// Direction choices are made through a counter-based Philox stream indexed
// by a global iteration counter, so the sequence d₀,d₁,… is a pure function
// of the seed and identical for every worker count — the methodology the
// paper uses (via Random123) to isolate the effect of asynchronism from the
// effect of randomness.
//
// The package supports unit-diagonal and general SPD matrices (iteration
// (3) of the paper), single vectors and row-major multi-right-hand-side
// blocks, atomic and non-atomic writes (the paper's §9 ablation), and the
// occasional-synchronization scheme of the Theorem 2 discussion.
package core

import (
	"errors"
	"math"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// Errors returned by solver construction.
var (
	ErrNotSquare    = errors.New("core: matrix is not square")
	ErrZeroDiagonal = errors.New("core: matrix has a zero diagonal entry")
)

// Options configure a Solver. The zero value is usable: unit step size,
// one worker, atomic writes, seed 0.
type Options struct {
	// Beta is the step size β ∈ (0,2). Zero means 1 (plain Gauss–Seidel
	// steps). Theorem 3 shows β̃ = 1/(1+2ρτ) optimises the asynchronous
	// bound; use OptimalBeta to set it from the matrix.
	Beta float64

	// Workers is the number of concurrent goroutines P for the
	// asynchronous methods. Zero or one runs the synchronous iteration.
	Workers int

	// NonAtomic disables the atomic coordinate update, reproducing the
	// paper's "non atomic" ablation. The resulting races are benign on
	// mainstream hardware but the variant carries no convergence theorem;
	// it exists to measure whether Assumption A-1 matters in practice.
	NonAtomic bool

	// Seed selects the Philox direction stream.
	Seed uint64

	// SyncPeriod, when positive, inserts a full barrier across workers
	// every SyncPeriod iterations — the occasional-synchronization scheme
	// that upgrades Theorem 2(b)'s long-term rate to Theorem 2(a)'s
	// per-epoch rate. Zero runs free (no barriers).
	SyncPeriod int

	// MeasureDelay enables bookkeeping of the observed asynchrony bound
	// τ̂ and of the full delay histogram (see Solver.DelayHistogram). An
	// iteration's delay is the number of updates other workers committed
	// between its start (before Throttle) and its own commit, measured the
	// same way in every asynchronous mode and at every chunk size.
	MeasureDelay bool

	// DiagonalWeighted samples coordinate r with probability A_rr/tr(A)
	// instead of uniformly — the general Leventhal–Lewis distribution for
	// non-unit-diagonal matrices. For unit-diagonal matrices it reduces
	// to uniform sampling. Requires a strictly positive diagonal. The
	// draw goes through an O(1) Walker/Vose alias table built once per
	// prepared matrix.
	DiagonalWeighted bool

	// Chunk is the number of global iteration indices a worker claims
	// from the shared counter at a time. One atomic add per chunk instead
	// of one per iteration takes the counter off the critical path; the
	// claimed block's directions are generated into a local buffer in one
	// pass. Zero auto-sizes from the budget and worker count; an explicit
	// chunk is capped at the claimed range and at 4096 (see
	// claim.SizeFor).
	Chunk int

	// Partitioned restricts each asynchronous worker to its own
	// contiguous block of ~n/P coordinates, making it the sole updater of
	// that block — the "more limited form of randomization" the paper
	// suggests for distributed memory (§1) and for reducing cache misses.
	// Writes need no atomicity (one writer per coordinate) but are kept
	// atomic unless NonAtomic is set, so the ablation stays orthogonal.
	// Ignored by the synchronous methods (P = 1 means one block = all).
	Partitioned bool

	// Throttle, when non-nil, is invoked before every asynchronous
	// iteration with the worker index and global iteration number. It
	// exists for fault injection — stalling a worker models the slow
	// processors of the Hook–Dingle analysis — and for experiments with
	// heterogeneous cores. It must be safe for concurrent use.
	Throttle func(worker int, iteration uint64)
}

// Solver holds an immutable matrix view plus solve options. A Solver is
// not safe for concurrent Sweeps/AsyncSweeps calls; fork one per in-flight
// solve from a shared Prep (NewFromPrep), or recycle one with Reinit.
type Solver struct {
	a         *sparse.CSR
	diag      []float64
	invD      []float64    // 1/diag, hoisted out of the inner loop
	diagAlias *alias.Table // O(1) alias table for DiagonalWeighted
	beta      float64
	opts      Options
	next      uint64 // global iteration index; advances across calls
	tau       uint64 // max observed delay (if MeasureDelay)
	// Reusable scratch, lazily sized and retained across Reinit so a
	// recycled Solver's warm solve allocates nothing: direction-index
	// buffer for the synchronous chunked fill, residual vector.
	pickBuf    []int32
	resScratch []float64
	// delayHist[k] counts iterations whose observed delay fell in
	// [2^(k-1), 2^k) (bucket 0 is delay 0); updated atomically.
	delayHist [delayBuckets]uint64
	// commits counts the asynchronous updates committed under
	// MeasureDelay; an iteration's delay is how far it advanced while the
	// iteration ran.
	commits atomic.Uint64
}

// delayBuckets is the number of power-of-two delay histogram buckets; 2⁶³
// exceeds any possible delay, so the histogram never saturates.
const delayBuckets = 64

// New validates the matrix and constructs a Solver. The matrix must be
// square with non-zero diagonal; symmetry and positive definiteness are the
// caller's contract (the convergence theory needs SPD, the iteration itself
// only needs the diagonal). Callers that solve the same matrix repeatedly
// should PrepareMatrix once and fork Solvers with NewFromPrep instead.
func New(a *sparse.CSR, opts Options) (*Solver, error) {
	p, err := PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return NewFromPrep(p, opts)
}

// ObservedTau returns the largest measured asynchrony delay τ̂ so far.
// Zero unless Options.MeasureDelay was set and an asynchronous method ran.
func (s *Solver) ObservedTau() int { return int(s.tau) }

// Iterations returns the number of single-coordinate updates performed by
// this solver across all calls.
func (s *Solver) Iterations() uint64 { return s.next }

// Reset rewinds the direction stream and delay statistics so a fresh run
// replays the same direction sequence d₀,d₁,…
func (s *Solver) Reset() {
	s.next = 0
	s.tau = 0
	for i := range s.delayHist {
		s.delayHist[i] = 0
	}
}

// DelayHistogram returns the observed-delay histogram collected when
// Options.MeasureDelay is set: bucket 0 counts iterations that saw no
// concurrent updates, bucket k ≥ 1 counts delays in [2^(k-1), 2^k). The
// histogram lets experiments report the delay *distribution*, addressing
// the paper's conclusion that the worst-case τ is pessimistic and a
// probabilistic delay model would be more descriptive.
func (s *Solver) DelayHistogram() []uint64 {
	out := make([]uint64, 0, delayBuckets)
	last := 0
	for i, c := range s.delayHist {
		if c != 0 {
			last = i
		}
		out = append(out, c)
	}
	return out[:last+1]
}

// Residual returns the relative residual ‖b−Ax‖₂/‖b‖₂ (or the absolute
// residual norm when ‖b‖₂ = 0).
func (s *Solver) Residual(x, b []float64) float64 {
	n := s.a.Rows
	if cap(s.resScratch) < n {
		s.resScratch = make([]float64, n)
	}
	r := s.resScratch[:n]
	s.a.MulVec(r, x)
	var num, den float64
	for i := range r {
		d := b[i] - r[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// Package kaczmarz implements the randomized Kaczmarz method of Strohmer
// and Vershynin and a shared-memory asynchronous variant in the style of
// Liu, Wright and Sridhar — the closest related work the paper discusses
// (§2). It serves as a baseline: Kaczmarz projects onto row hyperplanes of
// a consistent system, while AsyRGS descends along coordinates of an SPD
// system; both get linear rates from randomization.
package kaczmarz

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/claim"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// ErrNotConverged mirrors the solver packages' sentinel.
var ErrNotConverged = errors.New("kaczmarz: did not reach the requested tolerance")

// Options configure a Kaczmarz run.
type Options struct {
	// Beta is a step-size relaxation in (0,2); 0 means 1 (exact
	// projection onto the selected hyperplane).
	Beta float64
	// Workers > 1 runs the asynchronous variant.
	Workers int
	// Seed keys the row-selection stream.
	Seed uint64
	// Uniform selects rows uniformly instead of the Strohmer–Vershynin
	// ‖A_i‖² distribution.
	Uniform bool
	// Chunk is the number of iteration indices an asynchronous worker
	// claims from the shared counter at a time; zero auto-sizes from the
	// budget and worker count. Row selection stays a pure function of
	// (seed, j), so the chunk size never changes the projection multiset.
	Chunk int
}

// Solver holds the matrix and the row-sampling distribution.
type Solver struct {
	a        *sparse.CSR
	rowNorm2 []float64    // ‖A_i‖²: the projection divisor and the uniform path's zero-row test
	tab      *alias.Table // O(1) norm-weighted row draw
	opts     Options
	beta     float64
	next     uint64
	rowBytes int // per-iteration cache footprint estimate for chunk sizing
}

// prepCount counts PrepareMatrix calls; the Prepare/Solve pipeline tests
// use the delta to prove cached prepared state never recomputes row norms.
var prepCount atomic.Uint64

// PrepCount returns the number of per-matrix preparations (row-norm and
// sampling-table passes) performed so far in this process.
func PrepCount() uint64 { return prepCount.Load() }

// Prep is the reusable per-matrix state of the Kaczmarz solvers: the row
// norms ‖A_i‖² and the O(1) alias table over them that draws rows from
// the Strohmer–Vershynin distribution. Immutable after construction and
// safe for concurrent use; fork Solvers from it with NewFromPrep.
type Prep struct {
	a        *sparse.CSR
	rowNorm2 []float64
	tab      *alias.Table
}

// PrepareMatrix computes the row norms and the norm-weighted sampling
// distribution for A, paid once per matrix instead of once per solve.
func PrepareMatrix(a *sparse.CSR) (*Prep, error) {
	if a.Rows == 0 {
		return nil, errors.New("kaczmarz: empty matrix")
	}
	prepCount.Add(1)
	p := &Prep{a: a, rowNorm2: make([]float64, a.Rows)}
	var total float64
	for i := 0; i < a.Rows; i++ {
		var nz float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			nz += a.Vals[k] * a.Vals[k]
		}
		p.rowNorm2[i] = nz
		total += nz
	}
	if total == 0 {
		return nil, errors.New("kaczmarz: zero matrix")
	}
	// The alias table makes the norm-weighted draw O(1); squared norms
	// are non-negative and total > 0 was just checked, but the builder
	// re-validates (non-finite entries from overflowing rows surface
	// here with a clear error instead of a silently broken table).
	tab, err := alias.New(p.rowNorm2)
	if err != nil {
		return nil, fmt.Errorf("kaczmarz: building row-sampling table: %w", err)
	}
	p.tab = tab
	return p, nil
}

// Matrix returns the prepared matrix (shared, do not mutate).
func (p *Prep) Matrix() *sparse.CSR { return p.a }

// NewFromPrep forks a Solver from prepared per-matrix state, validating
// only the options — no matrix traversal.
func NewFromPrep(p *Prep, opts Options) (*Solver, error) {
	beta := opts.Beta
	if beta == 0 {
		beta = 1
	}
	if beta <= 0 || beta >= 2 {
		return nil, errors.New("kaczmarz: step size outside (0,2)")
	}
	if opts.Chunk < 0 {
		return nil, errors.New("kaczmarz: negative claiming chunk")
	}
	s := &Solver{a: p.a, rowNorm2: p.rowNorm2, tab: p.tab, opts: opts, beta: beta}
	meanNNZ := 0
	if p.a.Rows > 0 {
		meanNNZ = p.a.NNZ() / p.a.Rows
	}
	// One projection reads and scatters a full row: values + indices for
	// both passes, plus the touched x entries and the b/norm scalars.
	s.rowBytes = meanNNZ*24 + 24
	return s, nil
}

// New validates and prepares a solver for A·x = b. Rows with zero norm are
// never selected. Callers that solve the same matrix repeatedly should
// PrepareMatrix once and fork Solvers with NewFromPrep instead.
func New(a *sparse.CSR, opts Options) (*Solver, error) {
	p, err := PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return NewFromPrep(p, opts)
}

// pickRow maps iteration index j to a row according to the configured
// distribution; it skips zero rows under uniform sampling by rejection
// against consecutive sub-indices. The norm-weighted draw goes through
// the O(1) alias table (a zero-norm row has zero weight and is never
// drawn). Either way the row is a pure function of (seed, j).
func (s *Solver) pickRow(stream rng.Stream, j uint64) int {
	if s.opts.Uniform {
		//asyrgs:boundedloop rejection terminates because PrepareMatrix guarantees at least one row with positive norm
		for sub := uint64(0); ; sub++ {
			i := stream.IntnAt(j*31+sub, s.a.Rows)
			if s.rowNorm2[i] > 0 {
				return i
			}
		}
	}
	return s.tab.Pick(stream, j)
}

// step performs one Kaczmarz projection for row i on iterate x: a
// gather-dot to form the correction, then a scatter-axpy back over the
// row's support, both through the unrolled sparse kernels. concurrent
// selects atomic reads and CAS adds for the multi-worker path.
func (s *Solver) step(x, b []float64, i int, concurrent bool) {
	if concurrent {
		gamma := s.beta * (b[i] - s.a.RowDotAtomic(i, x)) / s.rowNorm2[i]
		s.a.RowAxpyAtomic(i, x, gamma)
		return
	}
	gamma := s.beta * (b[i] - s.a.RowDot(i, x)) / s.rowNorm2[i]
	s.a.RowAxpy(i, x, gamma)
}

// Iterations runs m iterations (synchronously for Workers <= 1, otherwise
// asynchronously with atomic coordinate updates) and returns the relative
// residual.
func (s *Solver) Iterations(x, b []float64, m int) float64 {
	if len(x) != s.a.Cols || len(b) != s.a.Rows {
		panic("kaczmarz: shape mismatch")
	}
	stream := rng.NewStream(s.opts.Seed)
	start := s.next
	end := start + uint64(m)
	if s.opts.Workers <= 1 {
		for j := start; j < end; j++ {
			i := s.pickRow(stream, j)
			s.step(x, b, i, false)
		}
	} else {
		// Chunked claiming: one CAS per chunk of indices instead of one
		// per projection takes the shared counter off the critical path.
		chunk := s.chunkSize(end - start)
		var counter atomic.Uint64
		counter.Store(start)
		var wg sync.WaitGroup
		for w := 0; w < s.opts.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
					for j := base; j < top; j++ {
						i := s.pickRow(stream, j)
						s.step(x, b, i, true)
					}
				}
			}()
		}
		wg.Wait()
	}
	s.next = end
	return s.Residual(x, b)
}

// chunkSize resolves the claiming granularity (see claim.SizeFor).
func (s *Solver) chunkSize(total uint64) int {
	return claim.SizeFor(s.opts.Chunk, total, s.opts.Workers, s.rowBytes)
}

// Solve iterates until the relative residual reaches tol or maxIter
// iterations are spent, checking every checkEvery iterations (n if zero).
func (s *Solver) Solve(x, b []float64, tol float64, maxIter, checkEvery int) (int, float64, error) {
	if checkEvery <= 0 {
		checkEvery = s.a.Cols
		if checkEvery == 0 {
			checkEvery = 1
		}
	}
	done := 0
	for done < maxIter {
		step := checkEvery
		if done+step > maxIter {
			step = maxIter - done
		}
		res := s.Iterations(x, b, step)
		done += step
		if res <= tol {
			return done, res, nil
		}
	}
	return done, s.Residual(x, b), ErrNotConverged
}

// Residual returns ‖b−Ax‖₂/‖b‖₂.
func (s *Solver) Residual(x, b []float64) float64 {
	r := make([]float64, s.a.Rows)
	s.a.MulVec(r, x)
	vec.Sub(r, b, r)
	nb := vec.Nrm2(b)
	if nb == 0 {
		nb = 1
	}
	return vec.Nrm2(r) / nb
}

// ExpectedRate returns the Strohmer–Vershynin per-iteration contraction
// factor 1 − λmin(AᵀA)/‖A‖_F² on E‖x−x*‖₂² for norm-weighted sampling.
func (s *Solver) ExpectedRate(lambdaMinATA float64) float64 {
	var frob2 float64
	for _, v := range s.rowNorm2 {
		frob2 += v
	}
	if frob2 == 0 {
		return 1
	}
	r := 1 - lambdaMinATA/frob2
	return math.Max(0, r)
}

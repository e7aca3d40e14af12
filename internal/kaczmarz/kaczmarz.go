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
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/claim"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// Options configure a Kaczmarz run.
type Options struct {
	// Beta is a step-size relaxation in (0,2); 0 means 1 (exact
	// projection onto the selected hyperplane).
	Beta float64
	// Workers > 1 runs the asynchronous variant.
	Workers int
	// Seed keys the row-selection stream.
	Seed uint64
	// Chunk is the number of iteration indices an asynchronous worker
	// claims from the shared counter at a time; zero auto-sizes from the
	// budget and worker count. Row selection stays a pure function of
	// (seed, j), so the chunk size never changes the projection multiset.
	Chunk int
}

// Solver holds the matrix and the row-sampling distribution.
type Solver struct {
	a        *sparse.CSR
	rowNorm2 []float64    // ‖A_i‖²: the projection divisor
	tab      *alias.Table // O(1) norm-weighted row draw
	opts     Options
	beta     float64
	next     uint64
	// resScratch holds b − A·x for Residual, allocated on first use and
	// reused by every later check.
	resScratch []float64
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

// NewFromPrep forks a Solver from prepared per-matrix state, validating
// only the options — no matrix traversal.
func NewFromPrep(p *Prep, opts Options) (*Solver, error) {
	beta := opts.Beta
	if beta == 0 {
		beta = 1
	}
	if !(beta > 0 && beta < 2) { // NaN fails too
		return nil, errors.New("kaczmarz: step size outside (0,2)")
	}
	if opts.Chunk < 0 {
		return nil, errors.New("kaczmarz: negative claiming chunk")
	}
	return &Solver{a: p.a, rowNorm2: p.rowNorm2, tab: p.tab, opts: opts, beta: beta}, nil
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

// Iterations runs m iterations: synchronously for Workers <= 1, otherwise
// asynchronously with atomic coordinate updates. Iteration j projects
// onto the row the alias table draws from the Strohmer–Vershynin ‖A_i‖²
// distribution, a pure function of (seed, j); a zero-norm row has zero
// weight and is never drawn. It measures nothing; call Residual for
// progress.
func (s *Solver) Iterations(x, b []float64, m int) {
	if len(x) != s.a.Cols || len(b) != s.a.Rows {
		panic("kaczmarz: shape mismatch")
	}
	stream := rng.NewStream(s.opts.Seed)
	start := s.next
	end := start + uint64(m)
	if s.opts.Workers <= 1 {
		for j := start; j < end; j++ {
			s.step(x, b, s.tab.Pick(stream, j), false)
		}
	} else {
		chunk := claim.SizeFor(s.opts.Chunk, end-start, s.opts.Workers)
		claim.Run(start, end, s.opts.Workers, chunk, false, func(_ int, lo, hi uint64) {
			for j := lo; j < hi; j++ {
				s.step(x, b, s.tab.Pick(stream, j), true)
			}
		})
	}
	s.next = end
}

// Residual returns ‖b−Ax‖₂/‖b‖₂. It forms b−Ax in the solver's own
// scratch, so checks allocate nothing after the first, and it is not
// reentrant.
func (s *Solver) Residual(x, b []float64) float64 {
	if cap(s.resScratch) < s.a.Rows {
		s.resScratch = make([]float64, s.a.Rows)
	}
	r := s.resScratch[:s.a.Rows]
	s.a.MulVec(r, x)
	vec.Sub(r, b, r)
	nb := vec.Nrm2(b)
	if nb == 0 {
		nb = 1
	}
	return vec.Nrm2(r) / nb
}

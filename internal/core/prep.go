package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// prepCount counts PrepareMatrix calls; the Prepare/Solve pipeline tests
// use the delta to prove that cached prepared state never recomputes the
// diagonal extraction or the sampling table.
var prepCount atomic.Uint64

// PrepCount returns the number of per-matrix preparations performed so
// far in this process.
func PrepCount() uint64 { return prepCount.Load() }

// Prep is the reusable per-matrix state of the core solver family: the
// validated diagonal, its reciprocal (hoisted out of the inner loop), and
// the lazily built O(1) Walker/Vose alias table of the diagonal-weighted
// draw. A Prep is immutable after construction and safe for concurrent
// use; any number of Solvers can be forked from it with NewFromPrep
// without re-running setup.
type Prep struct {
	a    *sparse.CSR
	diag []float64
	invD []float64

	aliasOnce sync.Once
	diagAlias *alias.Table
	aliasErr  error
}

// PrepareMatrix validates the matrix (square, non-zero diagonal) and
// captures the per-matrix solver state: one Diag extraction and one
// reciprocal pass, paid once per matrix instead of once per solve.
func PrepareMatrix(a *sparse.CSR) (*Prep, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	prepCount.Add(1)
	diag := a.Diag()
	invD := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("%w: row %d", ErrZeroDiagonal, i)
		}
		invD[i] = 1 / d
	}
	return &Prep{a: a, diag: diag, invD: invD}, nil
}

// InvDiag returns the reciprocal of the validated diagonal (shared, do
// not mutate): the prepared state of the stationary baselines too.
func (p *Prep) InvDiag() []float64 { return p.invD }

// weightedAlias returns the O(1) alias table over A_rr/tr(A), building
// and validating it on first use. Construction is O(n), paid once per
// prepared matrix — which is what lets a serving deployment's prep cache
// amortize it across every warm diagonal-weighted solve.
func (p *Prep) weightedAlias() (*alias.Table, error) {
	p.aliasOnce.Do(func() {
		if err := validateWeights(p.diag); err != nil {
			p.aliasErr = err
			return
		}
		p.diagAlias, p.aliasErr = alias.New(p.diag)
	})
	return p.diagAlias, p.aliasErr
}

// NewFromPrep forks a Solver from prepared per-matrix state. It performs
// only option validation — no matrix traversal — so it is cheap enough to
// call once per solve, giving each solve a fresh direction stream and
// delay statistics over the shared immutable Prep.
func NewFromPrep(p *Prep, opts Options) (*Solver, error) {
	s := &Solver{}
	if err := s.Reinit(p, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// Reinit points an existing Solver at prepared per-matrix state,
// resetting its direction stream and delay statistics while keeping its
// scratch buffers. Pools use it to recycle Solvers across warm solves so
// the prepared request path allocates nothing.
//
//asyrgs:noalloc
func (s *Solver) Reinit(p *Prep, opts Options) error {
	beta := opts.Beta
	if beta == 0 {
		beta = 1
	}
	if !(beta > 0 && beta < 2) { // NaN fails too
		return fmt.Errorf("core: step size β=%g outside (0,2)", beta)
	}
	if opts.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", opts.Workers)
	}
	if opts.Chunk < 0 {
		return fmt.Errorf("core: negative claiming chunk %d", opts.Chunk)
	}
	s.a, s.diag, s.invD = p.a, p.diag, p.invD
	s.beta, s.opts = beta, opts
	s.diagAlias = nil
	s.Reset()
	if opts.DiagonalWeighted {
		tab, err := p.weightedAlias()
		if err != nil {
			return err
		}
		s.diagAlias = tab
	}
	return nil
}

// Package lsq implements §8 of the paper: randomized coordinate descent
// for the overdetermined least-squares problem min_x ‖A·x − b‖₂ (which
// subsumes unsymmetric square systems), in both the classical sequential
// form (iteration (20), Leventhal–Lewis) and the asynchronous form
// (iteration (21)) that AsyRGS's strategy induces.
//
// The sequential iteration keeps the residual r = b − A·x in memory and
// updates it after every coordinate step, costing O(nnz(A e_j)) per step.
// The asynchronous iteration cannot keep r (updates to it are not atomic),
// so each step recomputes the needed residual entries from scratch:
//
//	γ_j = (A e_j)ᵀ (b − A·x_{K(j)}) / ‖A e_j‖² ,  x_{j+1} = x_j + βγ_j e_j ,
//
// costing O(Σ_i nnz(A_i)) over the rows i where column j is non-zero —
// the cost trade-off §8 quantifies as at most O(C2²/C1) per step.
// Iteration (21) is exactly AsyRGS applied to AᵀA·x = Aᵀb, so Theorem 4's
// guarantees transfer with ρ₂ computed from X = AᵀA (Theorem 5).
package lsq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/claim"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// Options configure a least-squares coordinate-descent solver.
type Options struct {
	// Beta is the step size. Theorem 5 requires β < 1 for the
	// asynchronous variant; 0 means 1 for the sequential solver and 0.5
	// for the asynchronous one.
	Beta float64
	// Workers > 1 runs the asynchronous iteration (21).
	Workers int
	// Seed keys the column-selection stream.
	Seed uint64
	// NormWeighted selects column j with probability ‖A e_j‖²/‖A‖_F² —
	// the general Leventhal–Lewis distribution for coordinate descent on
	// the normal equations — through an O(1) alias table built once per
	// prepared matrix. Off, columns are drawn uniformly.
	NormWeighted bool
	// Chunk is the number of iteration indices an asynchronous worker
	// claims from the shared counter at a time; zero auto-sizes from the
	// budget and worker count. Column selection stays a pure function of
	// (seed, j), so the chunk size never changes the update multiset.
	Chunk int
}

// Solver holds CSR and CSC views of A plus column norms.
type Solver struct {
	a        *sparse.CSR
	csc      *sparse.CSC
	colNorm2 []float64    // ‖A e_j‖², the step divisor
	tab      *alias.Table // nil unless NormWeighted
	beta     float64
	opts     Options
	next     uint64
	// resScratch (Rows) and atrScratch (Cols) hold b − A·x and Aᵀ(b − A·x)
	// for the residual checks, allocated on first use and reused by every
	// later check.
	resScratch, atrScratch []float64
}

// prepCount counts PrepareMatrix calls; the Prepare/Solve pipeline tests
// use the delta to prove cached prepared state never rebuilds the CSC
// transpose or the column norms.
var prepCount atomic.Uint64

// PrepCount returns the number of per-matrix preparations (CSC builds and
// column-norm passes) performed so far in this process.
func PrepCount() uint64 { return prepCount.Load() }

// Prep is the reusable per-matrix state of the least-squares solvers: the
// CSC column view of A (one transpose pass), the squared column norms
// ‖A e_j‖², and the lazily built norm-weighted alias table. Immutable
// after construction (the alias latch is internally synchronized) and
// safe for concurrent use; fork Solvers from it with NewFromPrep.
type Prep struct {
	a        *sparse.CSR
	csc      *sparse.CSC
	colNorm2 []float64

	aliasOnce sync.Once
	tab       *alias.Table
	aliasErr  error
}

// colAlias returns the ‖A e_j‖²-weighted alias table, building it on
// first use — once per prepared matrix, so a serving prep cache
// amortizes construction across every warm norm-weighted solve.
func (p *Prep) colAlias() (*alias.Table, error) {
	p.aliasOnce.Do(func() {
		p.tab, p.aliasErr = alias.New(p.colNorm2)
		if p.aliasErr != nil {
			p.aliasErr = fmt.Errorf("lsq: building column-sampling table: %w", p.aliasErr)
		}
	})
	return p.tab, p.aliasErr
}

// PrepareMatrix validates A (rows >= cols, no zero columns) and builds
// the column view plus norms, paid once per matrix instead of per solve.
func PrepareMatrix(a *sparse.CSR) (*Prep, error) {
	if a.Rows < a.Cols {
		return nil, errors.New("lsq: system must have at least as many rows as columns")
	}
	prepCount.Add(1)
	csc := a.ToCSC()
	norms := make([]float64, a.Cols)
	for j := 0; j < a.Cols; j++ {
		norms[j] = csc.ColNorm2Sq(j)
		if norms[j] == 0 {
			return nil, errors.New("lsq: matrix has a zero column")
		}
	}
	return &Prep{a: a, csc: csc, colNorm2: norms}, nil
}

// NewFromPrep forks a Solver from prepared per-matrix state, validating
// only the options — no transpose or norm computation (the norm-weighted
// alias table is memoized inside the Prep).
func NewFromPrep(p *Prep, opts Options) (*Solver, error) {
	beta := opts.Beta
	if beta == 0 {
		if opts.Workers > 1 {
			beta = 0.5
		} else {
			beta = 1
		}
	}
	if !(beta > 0 && beta < 2) { // NaN fails too
		return nil, errors.New("lsq: step size outside (0,2)")
	}
	if opts.Chunk < 0 {
		return nil, errors.New("lsq: negative claiming chunk")
	}
	s := &Solver{a: p.a, csc: p.csc, colNorm2: p.colNorm2, beta: beta, opts: opts}
	if opts.NormWeighted {
		tab, err := p.colAlias()
		if err != nil {
			return nil, err
		}
		s.tab = tab
	}
	return s, nil
}

// New validates A (must have no zero columns) and builds the solver.
// Callers that solve the same matrix repeatedly should PrepareMatrix once
// and fork Solvers with NewFromPrep instead.
func New(a *sparse.CSR, opts Options) (*Solver, error) {
	p, err := PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return NewFromPrep(p, opts)
}

// Iterations runs m coordinate steps on x and returns nothing; use
// ResidualNorm or LSQResidual for progress metrics. With Workers <= 1 it
// builds r = b − A·x and runs SequentialIterations from it.
func (s *Solver) Iterations(x, b []float64, m int) {
	if len(x) != s.a.Cols || len(b) != s.a.Rows {
		panic("lsq: shape mismatch")
	}
	if s.opts.Workers <= 1 {
		s.SequentialIterations(x, s.residual(x, b), m)
		return
	}
	end := s.next + uint64(m)
	s.runAsync(x, b, rng.NewStream(s.opts.Seed), s.next, end)
	s.next = end
}

// SequentialIterations runs m steps of the sequential iteration (20) on
// x, whatever Workers, from r = b − A·x, which it keeps current: the
// cheap O(nnz(col)) step. A caller that advances x in rounds builds r
// once and passes it to every round, instead of an SpMV per call.
func (s *Solver) SequentialIterations(x, r []float64, m int) {
	if len(x) != s.a.Cols || len(r) != s.a.Rows {
		panic("lsq: shape mismatch")
	}
	stream := rng.NewStream(s.opts.Seed)
	end := s.next + uint64(m)
	for it := s.next; it < end; it++ {
		j := s.pickCol(stream, it)
		rows, vals := s.csc.Col(j)
		var g float64
		for k, i := range rows {
			g += vals[k] * r[i]
		}
		gamma := s.beta * g / s.colNorm2[j]
		x[j] += gamma
		for k, i := range rows {
			r[i] -= gamma * vals[k]
		}
	}
	s.next = end
}

// pickCol maps iteration index it to a column: uniform, or the
// ‖A e_j‖²-weighted O(1) alias draw under NormWeighted. A pure function
// of (seed, it) either way.
func (s *Solver) pickCol(stream rng.Stream, it uint64) int {
	if s.tab != nil {
		return s.tab.Pick(stream, it)
	}
	return stream.IntnAt(it, s.a.Cols)
}

// runAsync is iteration (21): workers share x, each step recomputes the
// relevant residual entries (A_i·x for rows i touching column j) with
// plain reads, and commits the single-coordinate update atomically.
func (s *Solver) runAsync(x, b []float64, stream rng.Stream, start, end uint64) {
	chunk := claim.SizeFor(s.opts.Chunk, end-start, s.opts.Workers)
	claim.Run(start, end, s.opts.Workers, chunk, false, func(_ int, lo, hi uint64) {
		for it := lo; it < hi; it++ {
			j := s.pickCol(stream, it)
			rows, vals := s.csc.Col(j)
			var g float64
			for k, i := range rows {
				g += vals[k] * (b[i] - s.a.RowDotAtomic(i, x))
			}
			atomicfloat.Add(&x[j], s.beta*g/s.colNorm2[j])
		}
	})
}

// LSQResidual returns ‖Aᵀ(b − A·x)‖₂, the least-squares optimality
// residual: zero exactly at the minimizer x* = (AᵀA)⁻¹Aᵀb. Like
// ResidualNorm it works in the solver's own scratch, so checks allocate
// nothing after the first, and it is not reentrant.
func (s *Solver) LSQResidual(x, b []float64) float64 {
	return s.NormAT(s.residual(x, b))
}

// NormAT returns ‖Aᵀv‖₂ for a Rows-vector v, formed with the CSC
// transpose product in the solver's scratch; it is not reentrant.
// NormAT(b) is the optimality residual at x = 0, the scale of a relative
// least-squares residual.
func (s *Solver) NormAT(v []float64) float64 {
	if cap(s.atrScratch) < s.a.Cols {
		s.atrScratch = make([]float64, s.a.Cols)
	}
	atr := s.atrScratch[:s.a.Cols]
	s.csc.MulTransVec(atr, v)
	return vec.Nrm2(atr)
}

// ResidualNorm returns ‖b − A·x‖₂ (does not vanish for inconsistent
// systems; compare against the optimal value).
func (s *Solver) ResidualNorm(x, b []float64) float64 {
	return vec.Nrm2(s.residual(x, b))
}

// residual returns b − A·x in the solver's scratch, overwritten by the
// next call. A running residual kept across SequentialIterations calls
// must be the caller's own vector, not this one.
func (s *Solver) residual(x, b []float64) []float64 {
	if cap(s.resScratch) < s.a.Rows {
		s.resScratch = make([]float64, s.a.Rows)
	}
	r := s.resScratch[:s.a.Rows]
	s.a.MulVec(r, x)
	vec.Sub(r, b, r)
	return r
}

// Normal returns the explicit normal-equation system (AᵀA, Aᵀb), the SPD
// system iteration (21) implicitly solves — used by the tests to
// cross-check the asynchronous solver against AsyRGS on AᵀA.
func (s *Solver) Normal(b []float64) (*sparse.CSR, []float64) {
	ata := sparse.Gram(s.a)
	atb := make([]float64, s.a.Cols)
	s.csc.MulTransVec(atb, b)
	return ata, atb
}

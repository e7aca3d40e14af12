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

// ErrNotConverged mirrors the solver packages' sentinel.
var ErrNotConverged = errors.New("lsq: did not reach the requested tolerance")

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
	rowBytes int // per-iteration cache footprint estimate for chunk sizing
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

// Matrix returns the prepared matrix (shared, do not mutate).
func (p *Prep) Matrix() *sparse.CSR { return p.a }

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
	if beta <= 0 || beta >= 2 {
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
	// The async step walks one column and re-derives each touched row's
	// product: roughly column nnz × mean row nnz entries of values+indices.
	meanColNNZ, meanRowNNZ := 0, 0
	if p.a.Cols > 0 {
		meanColNNZ = p.a.NNZ() / p.a.Cols
	}
	if p.a.Rows > 0 {
		meanRowNNZ = p.a.NNZ() / p.a.Rows
	}
	s.rowBytes = meanColNNZ*(1+meanRowNNZ)*16 + 24
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
// ResidualNorm or LSQResidual for progress metrics.
func (s *Solver) Iterations(x, b []float64, m int) {
	if len(x) != s.a.Cols || len(b) != s.a.Rows {
		panic("lsq: shape mismatch")
	}
	stream := rng.NewStream(s.opts.Seed)
	start := s.next
	end := start + uint64(m)
	if s.opts.Workers <= 1 {
		s.runSequential(x, b, stream, start, end)
	} else {
		s.runAsync(x, b, stream, start, end)
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

// runSequential is iteration (20): the residual r = b − A·x is maintained
// incrementally, giving the cheap O(nnz(col)) step.
func (s *Solver) runSequential(x, b []float64, stream rng.Stream, start, end uint64) {
	r := make([]float64, s.a.Rows)
	s.a.MulVec(r, x)
	vec.Sub(r, b, r)
	for it := start; it < end; it++ {
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
}

// runAsync is iteration (21): workers share x, each step recomputes the
// relevant residual entries (A_i·x for rows i touching column j) with
// plain reads, and commits the single-coordinate update atomically.
func (s *Solver) runAsync(x, b []float64, stream rng.Stream, start, end uint64) {
	// Chunked claiming: one CAS per chunk of indices instead of one per
	// coordinate step takes the shared counter off the critical path.
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
				for it := base; it < top; it++ {
					j := s.pickCol(stream, it)
					rows, vals := s.csc.Col(j)
					var g float64
					for k, i := range rows {
						g += vals[k] * (b[i] - s.a.RowDotAtomic(i, x))
					}
					atomicfloat.Add(&x[j], s.beta*g/s.colNorm2[j])
				}
			}
		}()
	}
	wg.Wait()
}

// chunkSize resolves the claiming granularity (see claim.SizeFor).
func (s *Solver) chunkSize(total uint64) int {
	return claim.SizeFor(s.opts.Chunk, total, s.opts.Workers, s.rowBytes)
}

// LSQResidual returns ‖Aᵀ(b − A·x)‖₂, the least-squares optimality
// residual: zero exactly at the minimizer x* = (AᵀA)⁻¹Aᵀb.
func (s *Solver) LSQResidual(x, b []float64) float64 {
	r := make([]float64, s.a.Rows)
	s.a.MulVec(r, x)
	vec.Sub(r, b, r)
	atr := make([]float64, s.a.Cols)
	s.csc.MulTransVec(atr, r)
	return vec.Nrm2(atr)
}

// ResidualNorm returns ‖b − A·x‖₂ (does not vanish for inconsistent
// systems; compare against the optimal value).
func (s *Solver) ResidualNorm(x, b []float64) float64 {
	r := make([]float64, s.a.Rows)
	s.a.MulVec(r, x)
	vec.Sub(r, b, r)
	return vec.Nrm2(r)
}

// Solve iterates until the normal-equation residual ‖Aᵀ(b−Ax)‖₂ drops
// below tol or maxIter steps are spent, checking every checkEvery steps
// (one sweep = Cols steps if zero).
func (s *Solver) Solve(x, b []float64, tol float64, maxIter, checkEvery int) (int, float64, error) {
	if checkEvery <= 0 {
		checkEvery = s.a.Cols
	}
	done := 0
	for done < maxIter {
		step := checkEvery
		if done+step > maxIter {
			step = maxIter - done
		}
		s.Iterations(x, b, step)
		done += step
		if res := s.LSQResidual(x, b); res <= tol {
			return done, res, nil
		}
	}
	return done, s.LSQResidual(x, b), ErrNotConverged
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

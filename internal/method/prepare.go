// The two-phase Prepare/Solve pipeline. Prepare captures every piece of
// per-matrix solver state — Gram/CSC views, row and column norms,
// diagonal extraction and scaling, sampling tables — once, so that the
// returned PreparedSystem can run any number of solves (and batched
// multi-RHS solves) paying only iteration cost. This is the serving shape
// of the paper's amortization argument: setup is O(nnz) or worse, a warm
// solve is O(sweeps·nnz/n per coordinate), and a cached PreparedSystem
// turns repeated requests from O(prepare+solve) into O(solve).
package method

import (
	"context"
	"errors"
	"math"
	"time"

	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// PreparedSystem is per-matrix solver state captured once by Prepare and
// reused across solves. Implementations are immutable after construction
// and safe for concurrent use: every Solve forks its own iteration state
// (direction stream, counters) over the shared prepared data.
//
// Solve reads b, iterates on x in place (x is also the initial guess) and
// honours ctx exactly like Method.Solve. Opts fields that configure the
// iteration (Tol, MaxSweeps, Workers, Beta, Seed, …) are honoured per
// call; fields that would require new per-matrix state are fixed at
// Prepare time.
type PreparedSystem interface {
	// Solve runs one right-hand side against the prepared state.
	Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error)
	// SolveBatch runs len(bs) right-hand sides against the prepared
	// state, iterating xs[i] in place for bs[i]. Methods with a native
	// block iteration solve all columns together with batched (SpMM)
	// residual evaluation; the rest solve the columns sequentially over
	// the shared prepared state. One Result per right-hand side, in
	// order. Opts.XStar is ignored (it is a single-system diagnostic).
	SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error)
}

// Preparer is implemented by methods whose setup is separable from
// iteration. All built-in methods implement it; external methods that do
// not are adapted by Prepare with a prep-per-solve fallback.
type Preparer interface {
	Prepare(ctx context.Context, a *sparse.CSR, opts Opts) (PreparedSystem, error)
}

// PrepKeyer is implemented in addition to Preparer by methods whose
// Prepare consumes Opts fields, i.e. whose prepared state differs for
// different options over the same matrix. PrepKey must return a
// canonical string of exactly those fields; caches (the asyrgsd
// prepared-system LRU) append it to their matrix×method key so requests
// with different preparation-relevant options never share an entry.
// Among the built-ins only the sharded distmem backend implements it,
// keying on its deployment shape; every other built-in's prepared state
// depends on the matrix alone.
type PrepKeyer interface {
	PrepKey(opts Opts) string
}

// Prepare readies m for repeated solves against a. Methods implementing
// Preparer capture their per-matrix state once; any other Method is
// wrapped in a fallback adapter that re-runs the method's own setup on
// every solve (correct, but without the amortization).
func Prepare(ctx context.Context, m Method, a *sparse.CSR, opts Opts) (PreparedSystem, error) {
	if p, ok := m.(Preparer); ok {
		return p.Prepare(ctx, a, opts)
	}
	return &fallbackPrepared{preparedBase: base(m.Name(), m.Kind(), a), m: m}, nil
}

// preparedBase carries the identity every PreparedSystem shares.
type preparedBase struct {
	name string
	kind Kind
	a    *sparse.CSR
}

func base(name string, kind Kind, a *sparse.CSR) preparedBase {
	return preparedBase{name: name, kind: kind, a: a}
}

// fallbackPrepared adapts a Method without separable preparation: each
// Solve goes through the method's full path, setup included.
type fallbackPrepared struct {
	preparedBase
	m Method
}

func (p *fallbackPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	return p.m.Solve(ctx, p.a, b, x, opts)
}

func (p *fallbackPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p.Solve, bs, xs, opts)
}

// solveColumns is the shared sequential batch path: each right-hand side
// goes through solve against the same prepared state, so the batch
// pays preparation zero additional times. The first hard error (anything
// but budget exhaustion) aborts the batch; results computed so far are
// returned alongside it. ErrNotConverged is sticky: if any column
// exhausts its budget the batch reports it after finishing the rest.
func solveColumns(ctx context.Context, solve func(context.Context, []float64, []float64, Opts) (Result, error), bs, xs [][]float64, opts Opts) ([]Result, error) {
	if len(bs) != len(xs) {
		panic("method: SolveBatch needs one initial guess per right-hand side")
	}
	opts.XStar = nil
	results := make([]Result, 0, len(bs))
	var firstErr error
	for i := range bs {
		res, err := solve(ctx, bs[i], xs[i], opts)
		results = append(results, res)
		if err != nil {
			if errors.Is(err, ErrNotConverged) {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			return results, err
		}
	}
	return results, firstErr
}

// stampBatch sets the shared trailing fields of a batch's results. Batch
// paths never evaluate the A-norm error (Opts.XStar is a single-system
// diagnostic), so it is stamped with its documented NaN sentinel.
func stampBatch(results []Result, name string, start time.Time) {
	wall := time.Since(start)
	for i := range results {
		results[i].Method = name
		results[i].Wall = wall
		results[i].ANormErr = math.NaN()
	}
}

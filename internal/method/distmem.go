// The sharded distributed-memory backend behind the registry:
// asyrgs-distmem runs restricted randomization — each rank owns and
// sole-updates a contiguous coordinate block, exchanging committed
// updates over bounded message queues — which is the paper's named
// future-work deployment promoted to a first-class serving method. The
// backend participates fully in the two-phase pipeline: Prepare captures
// the partition (nnz-balanced), diagonal and per-rank direction streams
// once, and every Solve forks a persistent worker pool that is reused
// across convergence-check rounds and across the columns of a batch.
package method

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/asynclinalg/asyrgs/internal/distmem"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

func init() {
	Register(distmemMethod{})
}

// distmemMethod adapts internal/distmem to the registry. Unlike the
// funcMethod built-ins its Prepare consumes Opts — the worker count,
// queue budget, step size and seed are deployment shape, baked into the
// partition and streams — so it implements PrepKeyer and serving caches
// key prepared state by those fields.
type distmemMethod struct{}

func (distmemMethod) Name() string { return "asyrgs-distmem" }
func (distmemMethod) Kind() Kind   { return SPD }

// distmemConfig maps the normalized options onto the backend's
// deployment shape. Exactly these fields appear in PrepKey.
func distmemConfig(opts Opts) distmem.Config {
	opts = opts.withDefaults()
	queueCap := opts.QueueCap
	if queueCap <= 0 {
		queueCap = 4
	}
	beta := opts.Beta
	if beta == 0 {
		beta = 1 // distmem.Prepare's own default, resolved here so PrepKey is canonical
	}
	return distmem.Config{
		Workers: opts.Workers, QueueCap: queueCap,
		Beta: beta, Seed: opts.Seed,
		BalanceNNZ: true,
	}
}

// PrepKey canonicalizes the Opts fields Prepare consumes, so prepared-
// system caches never share an entry between differently-sharded
// deployments of the same matrix. (Worker counts above the matrix
// dimension clamp inside Prepare but key distinctly — the key cannot
// see the matrix; such requests are degenerate anyway.)
func (distmemMethod) PrepKey(opts Opts) string {
	cfg := distmemConfig(opts)
	return fmt.Sprintf("w%d|q%d|b%g|s%d", cfg.Workers, cfg.QueueCap, cfg.Beta, cfg.Seed)
}

// Prepare captures the sharded per-matrix state: ownership partition,
// validated diagonal, and one direction-stream key per rank.
func (m distmemMethod) Prepare(_ context.Context, a *sparse.CSR, opts Opts) (PreparedSystem, error) {
	prep, err := distmem.Prepare(a, distmemConfig(opts))
	if err != nil {
		return nil, err
	}
	return &distmemPrepared{preparedBase: base(m.Name(), SPD, a), prep: prep}, nil
}

// Solve is the one-shot convenience path: prepare plus a single solve.
func (m distmemMethod) Solve(ctx context.Context, a *sparse.CSR, b, x []float64, opts Opts) (Result, error) {
	ps, err := m.Prepare(ctx, a, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := ps.Solve(ctx, b, x, opts)
	res.Method = m.Name()
	return res, err
}

// distmemPrepared is the backend's PreparedSystem: immutable shared
// state (partition, diagonal, streams) from which each Solve forks its
// own persistent worker pool.
type distmemPrepared struct {
	preparedBase
	prep *distmem.Prepared
}

func (p *distmemPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = distmemCheckEvery(opts).withDefaults()
	s := p.prep.NewSolver()
	defer s.Close()
	return p.solveOn(ctx, s, b, x, opts)
}

// distmemCheckEvery raises the unset residual-check granularity above
// the shared CheckEvery=1 default: every round pays pool barriers,
// fresh inbox allocation, per-rank iterate copies and an O(nnz)
// residual, so one-sweep rounds would be dominated by setup (the same
// reasoning as chunkedStationary's default).
func distmemCheckEvery(opts Opts) Opts {
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 16
	}
	return opts
}

// solveOn runs one right-hand side over an already-running worker pool.
// Solve and SolveBatch share it, so a batch reuses one pool — and one
// set of ever-advancing stream offsets — across rounds and columns
// instead of respawning every goroutine per round.
func (p *distmemPrepared) solveOn(ctx context.Context, s *distmem.Solver, b, x []float64, opts Opts) (Result, error) {
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			res.Wall = time.Since(start)
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		dres, err := s.Solve(ctx, x, b, step)
		res.Messages += dres.MessagesSent
		if dres.MaxQueueLen > res.MaxQueue {
			res.MaxQueue = dres.MaxQueueLen
		}
		if err != nil {
			if isCtxErr(err) {
				res.Wall = time.Since(start)
				return res, ctxErr(p.name, ctx)
			}
			return res, err
		}
		res.Sweeps += step
		res.Iterations += uint64(step) * uint64(p.a.Rows)
		res.Residual = dres.Residual
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

// SolveBatch solves the columns sequentially over one shared worker
// pool: preparation and pool spawn are paid zero additional times per
// right-hand side. Error semantics match solveColumns (sticky
// ErrNotConverged, first hard error aborts).
func (p *distmemPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	if len(bs) != len(xs) {
		panic("method: SolveBatch needs one initial guess per right-hand side")
	}
	opts = distmemCheckEvery(opts).withDefaults()
	opts.XStar = nil
	s := p.prep.NewSolver()
	defer s.Close()
	results := make([]Result, 0, len(bs))
	var firstErr error
	for i := range bs {
		res, err := p.solveOn(ctx, s, bs[i], xs[i], opts)
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

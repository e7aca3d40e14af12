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
	"github.com/asynclinalg/asyrgs/internal/outer"
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
	opts = opts.withDefaults(16)
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
	opts = opts.withDefaults(16)
	s := p.prep.NewSolver()
	defer s.Close()
	return p.solveOn(ctx, s, b, x, opts)
}

// solveOn runs one right-hand side over an already-running worker pool.
// Solve and SolveBatch share it, so a batch reuses one pool — and one
// set of ever-advancing stream offsets — across rounds and columns
// instead of respawning every goroutine per round. One round of
// CheckEvery sweeps is one advance: every round pays pool barriers,
// fresh inboxes and an O(nnz) residual, and the ranks poll ctx every 64
// iterations within it.
func (p *distmemPrepared) solveOn(ctx context.Context, s *distmem.Solver, b, x []float64, opts Opts) (Result, error) {
	n := p.a.Rows
	if len(x) != n || len(b) != n {
		return Result{Method: p.name}, fmt.Errorf("distmem: shape mismatch n=%d len(x)=%d len(b)=%d", n, len(x), len(b))
	}
	start := time.Now()
	var round distmem.Result
	var messages uint64
	var maxQueue int
	prog, err := outer.Run(ctx, opts.Tol, opts.MaxSweeps, opts.CheckEvery,
		func(k int) int {
			// A round cut short by ctx surfaces as ctx's error from Run.
			round, _ = s.Solve(ctx, x, b, k)
			messages += round.MessagesSent
			maxQueue = max(maxQueue, round.MaxQueueLen)
			return k
		},
		func() float64 { return round.Residual })
	res, err := p.settle(ctx, prog, err, n, x, opts, start)
	res.Messages, res.MaxQueue = messages, maxQueue
	return res, err
}

// SolveBatch solves the columns sequentially over one shared worker
// pool: preparation and pool spawn are paid zero additional times per
// right-hand side. Error semantics match solveColumns (sticky
// ErrNotConverged, first hard error aborts).
func (p *distmemPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	if len(bs) != len(xs) {
		panic("method: SolveBatch needs one initial guess per right-hand side")
	}
	opts = opts.withDefaults(16)
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

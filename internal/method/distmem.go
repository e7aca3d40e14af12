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
	"fmt"
	"time"

	"github.com/asynclinalg/asyrgs/internal/distmem"
	"github.com/asynclinalg/asyrgs/internal/outer"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

func init() {
	Register(distmemMethod{&funcMethod{name: "asyrgs-distmem", kind: SPD, prepare: distmemPrepare}})
}

// distmemMethod is the funcMethod of internal/distmem plus PrepKey.
// Unlike the other built-ins its Prepare consumes Opts — the worker
// count, queue budget, step size and seed are deployment shape, baked
// into the partition and streams — so serving caches key prepared state
// by those fields.
type distmemMethod struct{ *funcMethod }

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

// distmemPrepare captures the sharded per-matrix state: ownership
// partition, validated diagonal, and one direction-stream key per rank.
func distmemPrepare(a *sparse.CSR, opts Opts) (PreparedSystem, error) {
	prep, err := distmem.Prepare(a, distmemConfig(opts))
	if err != nil {
		return nil, err
	}
	return &distmemPrepared{preparedBase: base("asyrgs-distmem", SPD, a), prep: prep}, nil
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
// right-hand side.
func (p *distmemPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	s := p.prep.NewSolver()
	defer s.Close()
	return solveColumns(ctx, func(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
		return p.solveOn(ctx, s, b, x, opts)
	}, bs, xs, opts.withDefaults(16))
}

package method

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// The built-in registry: every solver family of the repository, wired
// through the two-phase Prepare/Solve pipeline. Variants are separate
// entries so drivers and ablation tables are pure data; each entry's
// prepare hook captures the family's per-matrix state once.
func init() {
	registerCore := func(name string, baseOpts core.Options, sequential bool) {
		Register(&funcMethod{name: name, kind: SPD, prepare: corePrepare(name, baseOpts, sequential)})
	}
	registerCore("asyrgs", core.Options{}, false)
	registerCore("asyrgs-nonatomic", core.Options{NonAtomic: true}, false)
	registerCore("asyrgs-partitioned", core.Options{Partitioned: true}, false)
	registerCore("asyrgs-weighted", core.Options{DiagonalWeighted: true}, false)
	registerCore("rgs", core.Options{}, true)
	Register(&funcMethod{name: "cg", kind: SPD, prepare: cgPrepare})
	Register(&funcMethod{name: "fcg", kind: SPD, prepare: fcgPrepare})
	Register(&funcMethod{name: "jacobi", kind: SPD, prepare: stationaryPrepare("jacobi")})
	Register(&funcMethod{name: "gs", kind: SPD, prepare: stationaryPrepare("gs")})
	Register(&funcMethod{name: "asyncjacobi", kind: SPD, prepare: stationaryPrepare("asyncjacobi")})
	Register(&funcMethod{name: "kaczmarz", kind: SPD, prepare: kaczmarzPrepare})
	registerLSQ := func(name string, sequential, weighted bool) {
		Register(&funcMethod{name: name, kind: LeastSquares, prepare: lsqPrepare(name, sequential, weighted)})
	}
	registerLSQ("lsqcd", true, false)
	registerLSQ("lsqcd-async", false, false)
	registerLSQ("lsqcd-weighted", true, true)
}

// ---------------------------------------------------------------------------
// AsyRGS / RGS family

// corePrepared holds the reusable per-matrix state of the core family
// (validated diagonal, reciprocal, alias table) plus the variant flags.
// Each Solve runs a recycled core.Solver over the shared core.Prep — the
// pool keeps warm solves allocation-free while the direction stream and
// delay statistics stay per-solve and preparation is paid exactly once.
type corePrepared struct {
	preparedBase
	prep       *core.Prep
	baseOpts   core.Options
	sequential bool
	// pool recycles solvers (with their direction and residual scratch)
	// across solves; concurrent solves each draw their own.
	pool sync.Pool
}

// corePrepare builds the prepare hook for an AsyRGS/RGS variant. base
// carries the variant flags; sequential forces one worker (the
// synchronous Randomized Gauss–Seidel iteration).
func corePrepare(name string, baseOpts core.Options, sequential bool) prepareFunc {
	return func(a *sparse.CSR) (PreparedSystem, error) {
		prep, err := core.PrepareMatrix(a)
		if err != nil {
			return nil, err
		}
		if baseOpts.DiagonalWeighted {
			// Surface the positive-diagonal requirement at prepare time;
			// the alias table itself is memoized inside the Prep.
			if _, err := core.NewFromPrep(prep, baseOpts); err != nil {
				return nil, err
			}
		}
		return &corePrepared{
			preparedBase: base(name, SPD, a),
			prep:         prep, baseOpts: baseOpts, sequential: sequential,
		}, nil
	}
}

// fork readies a per-solve core.Solver over the shared prepared state,
// recycling a pooled one when available so the warm path allocates
// nothing. Callers must release the solver when the solve is done.
//
//asyrgs:noalloc
func (p *corePrepared) fork(opts Opts) (*core.Solver, error) {
	co := p.baseOpts
	co.Workers = opts.Workers
	if p.sequential {
		co.Workers = 1
	}
	co.Beta = opts.Beta
	co.Seed = opts.Seed
	co.Chunk = opts.Chunk
	co.MeasureDelay = opts.MeasureDelay
	co.Throttle = opts.Throttle
	if v := p.pool.Get(); v != nil {
		s := v.(*core.Solver)
		if err := s.Reinit(p.prep, co); err != nil {
			return nil, err
		}
		return s, nil
	}
	return core.NewFromPrep(p.prep, co)
}

// release returns a forked solver (and its scratch) to the pool.
//
//asyrgs:noalloc
func (p *corePrepared) release(s *core.Solver) { p.pool.Put(s) }

//asyrgs:noalloc
func (p *corePrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	s, err := p.fork(opts)
	if err != nil {
		return Result{}, err
	}
	defer p.release(s)
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		s.AsyncSweeps(x, b, step)
		res.Sweeps += step
		res.Residual = s.Residual(x, b)
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	res.Iterations = s.Iterations()
	res.ObservedTau = s.ObservedTau()
	return res, finish(&res, p.a, x, opts, start, SPD)
}

// SolveBatch runs every right-hand side together through the core block
// iteration: each coordinate update touches the whole row-major RHS block
// (the paper's multi-RHS locality trick), and convergence is checked for
// all columns with one SpMM residual pass per CheckEvery sweeps.
func (p *corePrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	if len(bs) != len(xs) {
		panic("method: SolveBatch needs one initial guess per right-hand side")
	}
	c := len(bs)
	if c == 0 {
		return nil, nil
	}
	if c == 1 {
		res, err := p.Solve(ctx, bs[0], xs[0], opts)
		return []Result{res}, err
	}
	opts = opts.withDefaults()
	s, err := p.fork(opts)
	if err != nil {
		return nil, err
	}
	defer p.release(s)
	n := p.a.Rows
	bblk := vec.NewDense(n, c)
	xblk := vec.NewDense(n, c)
	for j := range bs {
		if len(bs[j]) != n || len(xs[j]) != n {
			panic("method: SolveBatch shape mismatch")
		}
		bblk.SetCol(j, bs[j])
		xblk.SetCol(j, xs[j])
	}
	flush := func() {
		for j := range xs {
			xblk.Col(xs[j], j)
		}
	}

	start := time.Now()
	results := make([]Result, c)
	done := 0
	var residuals []float64
	for done < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			flush()
			stampBatch(results, p.name, start)
			return results, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-done)
		s.AsyncSweepsDense(xblk, bblk, step)
		done += step
		residuals = p.a.BatchRelResiduals(bblk.Data, xblk.Data, c, opts.Workers)
		all := true
		for _, r := range residuals {
			if !opts.converged(r) {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	flush()
	var firstErr error
	for j := range results {
		results[j] = Result{
			Residual: residuals[j], Converged: opts.converged(residuals[j]),
			Sweeps: done, Iterations: s.Iterations(), ObservedTau: s.ObservedTau(),
		}
		if !results[j].Converged && opts.Tol > 0 && firstErr == nil {
			firstErr = ErrNotConverged
		}
	}
	stampBatch(results, p.name, start)
	return results, firstErr
}

// ---------------------------------------------------------------------------
// Krylov methods

// cgPrepared wraps (parallel-SpMV) conjugate gradients. CG keeps no
// per-matrix state beyond the matrix itself, so preparation is trivially
// cheap; it still participates in the pipeline so serving caches treat
// every method uniformly.
type cgPrepared struct {
	preparedBase
}

func cgPrepare(a *sparse.CSR) (PreparedSystem, error) {
	return &cgPrepared{preparedBase: base("cg", SPD, a)}, nil
}

func (p *cgPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	cgRes, err := krylov.CG(p.a, x, b, krylov.CGOptions{
		Tol: effectiveTol(opts.Tol), MaxIter: opts.MaxSweeps, Workers: opts.Workers,
		Partition: sparse.PartitionRoundRobin, Ctx: ctx,
	})
	res := Result{
		Method:   p.name,
		Residual: cgRes.Residual, Converged: cgRes.Converged,
		Sweeps: cgRes.Iterations, Iterations: uint64(cgRes.Iterations),
	}
	if isCtxErr(err) {
		res.Wall = time.Since(start)
		return res, ctxErr(p.name, ctx)
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

func (p *cgPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// fcgPrepared is the paper's recommended high-accuracy configuration:
// Flexible-CG preconditioned by Opts.Inner sweeps of AsyRGS. The prepared
// state is the preconditioner's core.Prep — the expensive part of FCG
// setup — shared across solves.
type fcgPrepared struct {
	preparedBase
	prep *core.Prep
}

func fcgPrepare(a *sparse.CSR) (PreparedSystem, error) {
	prep, err := core.PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return &fcgPrepared{preparedBase: base("fcg", SPD, a), prep: prep}, nil
}

func (p *fcgPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	s, err := core.NewFromPrep(p.prep, core.Options{
		Workers: opts.Workers, Beta: opts.Beta, Seed: opts.Seed,
		Throttle: opts.Throttle,
	})
	if err != nil {
		return Result{}, err
	}
	pre := krylov.PrecondFunc(func(z, r []float64) { s.Precondition(z, r, opts.Inner) })
	start := time.Now()
	fcgRes, err := krylov.FlexibleCG(p.a, x, b, pre, krylov.FCGOptions{
		Tol: effectiveTol(opts.Tol), MaxIter: opts.MaxSweeps, Workers: opts.Workers,
		Partition: sparse.PartitionRoundRobin, Ctx: ctx,
	})
	res := Result{
		Method:   p.name,
		Residual: fcgRes.Residual, Converged: fcgRes.Converged,
		Sweeps: fcgRes.Iterations, Iterations: s.Iterations(),
	}
	if isCtxErr(err) {
		res.Wall = time.Since(start)
		return res, ctxErr(p.name, ctx)
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

func (p *fcgPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// effectiveTol maps the registry's "non-positive tolerance = fixed work"
// convention onto the Krylov solvers, whose option structs replace a
// non-positive tolerance with their own defaults: an unreachably small
// positive value runs the full budget.
func effectiveTol(tol float64) float64 {
	if tol <= 0 {
		return 1e-300
	}
	return tol
}

// isCtxErr reports whether a solver error came from context
// cancellation.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ---------------------------------------------------------------------------
// Classical stationary baselines

// stationaryPrepared holds the prepared state of the Jacobi, Gauss–Seidel
// and chaotic-relaxation baselines: the reciprocal diagonal, extracted
// once per matrix instead of once per chunk of sweeps.
type stationaryPrepared struct {
	preparedBase
	inv []float64
}

func stationaryPrepare(name string) prepareFunc {
	return func(a *sparse.CSR) (PreparedSystem, error) {
		if a.Rows != a.Cols {
			return nil, errors.New("method: " + name + " needs a square matrix")
		}
		return &stationaryPrepared{
			preparedBase: base(name, SPD, a),
			inv:          krylov.InvDiag(a),
		}, nil
	}
}

func (p *stationaryPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	switch p.name {
	case "jacobi":
		return chunkedStationary(ctx, p.name, p.a, b, x, opts, func(chunk int, tol float64) krylov.StationaryResult {
			return krylov.JacobiWithInv(p.a, p.inv, x, b, chunk, tol, opts.Workers)
		})
	case "gs":
		return chunkedStationary(ctx, p.name, p.a, b, x, opts, func(chunk int, tol float64) krylov.StationaryResult {
			return krylov.GaussSeidelWithInv(p.a, p.inv, x, b, chunk, tol)
		})
	default: // asyncjacobi
		var iter atomic.Uint64 // the throttle hook is invoked from every worker
		return chunkedStationary(ctx, p.name, p.a, b, x, opts, func(chunk int, tol float64) krylov.StationaryResult {
			if opts.Throttle != nil {
				return krylov.AsyncJacobiThrottledWithInv(p.a, p.inv, x, b, chunk, opts.Workers, func(w, i int) {
					opts.Throttle(w, iter.Add(1)-1)
				})
			}
			return krylov.AsyncJacobiWithInv(p.a, p.inv, x, b, chunk, opts.Workers)
		})
	}
}

func (p *stationaryPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// chunkedStationary runs a stationary iteration CheckEvery sweeps at a
// time, checking the context between chunks. Each chunk call re-runs a
// trailing residual matvec, so when the caller did not pick a granularity
// the default is a larger chunk than the shared CheckEvery=1 (the
// iterations stop early within a chunk once tol is met, so a big chunk
// cannot overshoot).
func chunkedStationary(ctx context.Context, name string, a *sparse.CSR, b, x []float64, opts Opts, sweep func(chunk int, tol float64) krylov.StationaryResult) (Result, error) {
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 16
	}
	opts = opts.withDefaults()
	n := uint64(a.Rows)
	start := time.Now()
	res := Result{Method: name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		sr := sweep(step, opts.Tol)
		res.Sweeps += sr.Sweeps
		res.Iterations += uint64(sr.Sweeps) * n
		res.Residual = sr.Residual
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, a, x, opts, start, SPD)
}

// ---------------------------------------------------------------------------
// Randomized Kaczmarz

// kaczmarzPrepared holds the Kaczmarz row norms and row-sampling alias
// table; one sweep is n row projections.
type kaczmarzPrepared struct {
	preparedBase
	prep *kaczmarz.Prep
}

func kaczmarzPrepare(a *sparse.CSR) (PreparedSystem, error) {
	prep, err := kaczmarz.PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return &kaczmarzPrepared{preparedBase: base("kaczmarz", SPD, a), prep: prep}, nil
}

func (p *kaczmarzPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	s, err := kaczmarz.NewFromPrep(p.prep, kaczmarz.Options{
		Workers: opts.Workers, Seed: opts.Seed, Beta: opts.Beta, Chunk: opts.Chunk,
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		res.Residual = s.Iterations(x, b, step*p.a.Rows)
		res.Sweeps += step
		res.Iterations += uint64(step) * uint64(p.a.Rows)
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

func (p *kaczmarzPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// ---------------------------------------------------------------------------
// §8 least-squares coordinate descent

// lsqPrepared holds the CSC view and column norms of the §8 least-squares
// coordinate descent: sequential iteration (20) or asynchronous iteration
// (21), drawing columns uniformly or — for lsqcd-weighted — with the
// ‖A e_j‖²-weighted alias table (the general Leventhal–Lewis
// distribution). One sweep is Cols coordinate steps; residuals are
// relative normal-equation residuals ‖Aᵀ(b−Ax)‖₂/‖Aᵀb‖₂.
type lsqPrepared struct {
	preparedBase
	prep       *lsq.Prep
	sequential bool
	weighted   bool
}

func lsqPrepare(name string, sequential, weighted bool) prepareFunc {
	return func(a *sparse.CSR) (PreparedSystem, error) {
		prep, err := lsq.PrepareMatrix(a)
		if err != nil {
			return nil, err
		}
		if weighted {
			// Surface alias-table validation at prepare time; the table is
			// memoized inside the Prep, so the serving prep cache amortizes
			// its construction.
			if _, err := lsq.NewFromPrep(prep, lsq.Options{NormWeighted: true}); err != nil {
				return nil, err
			}
		}
		return &lsqPrepared{
			preparedBase: base(name, LeastSquares, a),
			prep:         prep, sequential: sequential, weighted: weighted,
		}, nil
	}
}

func (p *lsqPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	workers := opts.Workers
	if p.sequential {
		workers = 1
	}
	s, err := lsq.NewFromPrep(p.prep, lsq.Options{
		Workers: workers, Seed: opts.Seed, Beta: opts.Beta,
		NormWeighted: p.weighted, Chunk: opts.Chunk,
	})
	if err != nil {
		return Result{}, err
	}
	// ‖Aᵀb‖₂ is the optimality residual at x = 0; reuse the solver's
	// CSC view instead of building another transpose.
	normATb := s.LSQResidual(make([]float64, p.a.Cols), b)
	if normATb == 0 {
		normATb = 1
	}
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		s.Iterations(x, b, step*p.a.Cols)
		res.Sweeps += step
		res.Iterations += uint64(step) * uint64(p.a.Cols)
		res.Residual = s.LSQResidual(x, b) / normATb
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, p.a, x, opts, start, LeastSquares)
}

func (p *lsqPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

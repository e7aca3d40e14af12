package method

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/outer"
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
	Register(&funcMethod{name: "jacobi", kind: SPD, prepare: stationaryPrepare("jacobi", runJacobi)})
	Register(&funcMethod{name: "gs", kind: SPD, prepare: stationaryPrepare("gs", runGS)})
	Register(&funcMethod{name: "asyncjacobi", kind: SPD, prepare: stationaryPrepare("asyncjacobi", runAsyncJacobi)})
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
	return func(a *sparse.CSR, _ Opts) (PreparedSystem, error) {
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
	opts = opts.withDefaults(0)
	s, err := p.fork(opts)
	if err != nil {
		return Result{}, err
	}
	defer p.release(s)
	start := time.Now()
	r := coreRun{s: s, x: x, b: b}
	prog, err := outer.Run(ctx, opts.Tol, opts.MaxSweeps, opts.CheckEvery, r.sweep, r.residual)
	res, err := p.settle(ctx, prog, err, p.a.Rows, x, opts, start)
	res.ObservedTau = s.ObservedTau()
	return res, err
}

// coreRun binds one core solve for outer.Run. Its method values stand in
// for function literals, which noallocwarm rejects in Solve; outer.Run
// only calls them, so they stay on the stack and the warm path allocates
// nothing.
type coreRun struct {
	s    *core.Solver
	x, b []float64
}

// sweep advances one sweep: the context is polled between sweeps.
func (r *coreRun) sweep(int) int     { r.s.AsyncSweeps(r.x, r.b, 1); return 1 }
func (r *coreRun) residual() float64 { return r.s.Residual(r.x, r.b) }

// SolveBatch runs every right-hand side together through the core block
// iteration: each coordinate update touches the whole row-major RHS block
// (the paper's multi-RHS locality trick), and convergence is checked for
// all columns with one SpMM residual pass per round, on the worst column;
// every Result carries the batch's one count of checks. Sweeps run one
// per call, so the context is polled between sweeps.
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
	opts = opts.withDefaults(0)
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
	start := time.Now()
	results := make([]Result, c)
	var residuals []float64
	prog, err := outer.Run(ctx, opts.Tol, opts.MaxSweeps, opts.CheckEvery,
		func(int) int { s.AsyncSweepsDense(xblk, bblk, 1); return 1 },
		func() float64 {
			residuals = p.a.BatchRelResiduals(bblk.Data, xblk.Data, c, opts.Workers)
			worst := 0.0
			for _, r := range residuals {
				worst = math.Max(worst, r) // NaN propagates: a NaN column stops the batch
			}
			return worst
		})
	for j := range xs {
		xblk.Col(xs[j], j)
	}
	if err != nil {
		stampBatch(results, p.name, start)
		return results, p.stopErr(ctx, prog, err)
	}
	var firstErr error
	for j := range results {
		results[j] = Result{
			Residual: residuals[j], Converged: opts.converged(residuals[j]),
			Sweeps: prog.Done, Checks: prog.Checks, Iterations: s.Iterations(), ObservedTau: s.ObservedTau(),
		}
		if !results[j].Converged && opts.Tol > 0 && firstErr == nil {
			firstErr = ErrNotConverged
		}
	}
	stampBatch(results, p.name, start)
	return results, firstErr
}

// ---------------------------------------------------------------------------
// Krylov and stationary baselines: krylov steps driven by outer.Run

// cg, fcg and jacobi form their residual inside every step, so they
// measure it before the first step and after every step
// (outer.RunEveryStep) and ignore Opts.CheckEvery: a longer interval could
// only overshoot the tolerance.

// cgPrepared wraps (parallel-SpMV) conjugate gradients. CG keeps no
// per-matrix state beyond the matrix itself, so preparation is trivially
// cheap; it still participates in the pipeline so serving caches treat
// every method uniformly.
type cgPrepared struct {
	preparedBase
}

func cgPrepare(a *sparse.CSR, _ Opts) (PreparedSystem, error) {
	return &cgPrepared{preparedBase: base("cg", SPD, a)}, nil
}

func (p *cgPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults(0)
	start := time.Now()
	c := krylov.NewCG(p.a, x, b, opts.Workers)
	prog, err := outer.RunEveryStep(ctx, opts.Tol, opts.MaxSweeps, c.Step, c.Residual)
	return p.settle(ctx, prog, err, 1, x, opts, start)
}

func (p *cgPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p.Solve, bs, xs, opts)
}

// fcgPrepared is the paper's recommended high-accuracy configuration:
// Flexible-CG preconditioned by Opts.Inner sweeps of AsyRGS. The prepared
// state is the preconditioner's core.Prep — the expensive part of FCG
// setup — shared across solves.
type fcgPrepared struct {
	preparedBase
	prep *core.Prep
}

func fcgPrepare(a *sparse.CSR, _ Opts) (PreparedSystem, error) {
	prep, err := core.PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return &fcgPrepared{preparedBase: base("fcg", SPD, a), prep: prep}, nil
}

// Solve reports the preconditioner's coordinate updates as Iterations.
func (p *fcgPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults(0)
	s, err := core.NewFromPrep(p.prep, core.Options{
		Workers: opts.Workers, Beta: opts.Beta, Seed: opts.Seed,
		Throttle: opts.Throttle,
	})
	if err != nil {
		return Result{}, err
	}
	// The Inner sweeps run one per call and stop once ctx is done;
	// outer.Run then stops before the next iteration.
	pre := krylov.PrecondFunc(func(z, r []float64) {
		clear(z)
		for k := 0; k < opts.Inner && ctx.Err() == nil; k++ {
			s.AsyncSweeps(z, r, 1)
		}
	})
	start := time.Now()
	f := krylov.NewFCG(p.a, x, b, pre, opts.Workers)
	prog, err := outer.RunEveryStep(ctx, opts.Tol, opts.MaxSweeps, f.Step, f.Residual)
	res, err := p.settle(ctx, prog, err, 1, x, opts, start)
	res.Iterations = s.Iterations()
	return res, err
}

func (p *fcgPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p.Solve, bs, xs, opts)
}

// stationaryPrepared holds the prepared state of the Jacobi, Gauss–Seidel
// and chaotic-relaxation baselines: the reciprocal of the diagonal, which
// core.PrepareMatrix validates (square, no zero entry) once per matrix.
type stationaryPrepared struct {
	preparedBase
	inv []float64
	run runFunc
}

// runFunc runs one solve of a stationary baseline through outer.Run.
type runFunc func(ctx context.Context, p *stationaryPrepared, b, x []float64, opts Opts) (outer.Progress, error)

func stationaryPrepare(name string, run runFunc) prepareFunc {
	return func(a *sparse.CSR, _ Opts) (PreparedSystem, error) {
		prep, err := core.PrepareMatrix(a)
		if err != nil {
			return nil, err
		}
		return &stationaryPrepared{preparedBase: base(name, SPD, a), inv: prep.InvDiag(), run: run}, nil
	}
}

func (p *stationaryPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults(16)
	start := time.Now()
	prog, err := p.run(ctx, p, b, x, opts)
	return p.settle(ctx, prog, err, p.a.Rows, x, opts, start)
}

func (p *stationaryPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p.Solve, bs, xs, opts)
}

func runJacobi(ctx context.Context, p *stationaryPrepared, b, x []float64, opts Opts) (outer.Progress, error) {
	j := krylov.NewJacobi(p.a, p.inv, x, b, opts.Workers)
	return outer.RunEveryStep(ctx, opts.Tol, opts.MaxSweeps, j.Step, j.Residual)
}

// runGS measures after every sweep while a tolerance can stop the solve,
// and once at the end of fixed work: its residual costs a product of its
// own. It ignores Opts.CheckEvery.
func runGS(ctx context.Context, p *stationaryPrepared, b, x []float64, opts Opts) (outer.Progress, error) {
	g := krylov.NewGaussSeidel(p.a, p.inv, x, b)
	every := 1
	if opts.Tol <= 0 {
		every = opts.MaxSweeps
	}
	return outer.Run(ctx, opts.Tol, opts.MaxSweeps, every, g.Step, g.Residual)
}

// runAsyncJacobi runs one barrier-free call per round of CheckEvery
// sweeps (16 by default), each worker polling ctx between its own sweeps.
func runAsyncJacobi(ctx context.Context, p *stationaryPrepared, b, x []float64, opts Opts) (outer.Progress, error) {
	var throttle func(w, i int)
	if opts.Throttle != nil {
		var iter atomic.Uint64 // the throttle hook is invoked from every worker
		throttle = func(w, _ int) { opts.Throttle(w, iter.Add(1)-1) }
	}
	aj := krylov.NewAsyncJacobi(ctx, p.a, p.inv, x, b, opts.Workers, throttle)
	return outer.Run(ctx, opts.Tol, opts.MaxSweeps, opts.CheckEvery, aj.Step, aj.Residual)
}

// ---------------------------------------------------------------------------
// Randomized Kaczmarz

// kaczmarzPrepared holds the Kaczmarz row norms and row-sampling alias
// table; one sweep is n row projections.
type kaczmarzPrepared struct {
	preparedBase
	prep *kaczmarz.Prep
}

func kaczmarzPrepare(a *sparse.CSR, _ Opts) (PreparedSystem, error) {
	prep, err := kaczmarz.PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return &kaczmarzPrepared{preparedBase: base("kaczmarz", SPD, a), prep: prep}, nil
}

func (p *kaczmarzPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults(0)
	s, err := kaczmarz.NewFromPrep(p.prep, kaczmarz.Options{
		Workers: opts.Workers, Seed: opts.Seed, Beta: opts.Beta, Chunk: opts.Chunk,
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	prog, err := outer.Run(ctx, opts.Tol, opts.MaxSweeps, opts.CheckEvery,
		func(int) int { s.Iterations(x, b, p.a.Rows); return 1 },
		func() float64 { return s.Residual(x, b) })
	return p.settle(ctx, prog, err, p.a.Rows, x, opts, start)
}

func (p *kaczmarzPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p.Solve, bs, xs, opts)
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
	return func(a *sparse.CSR, _ Opts) (PreparedSystem, error) {
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

// Solve runs one sweep per advance. The sequential variants keep the
// running residual b − A·x of iteration (20) across sweeps, built once per
// solve; each check is still a fresh LSQResidual.
func (p *lsqPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults(0)
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
	normATb := s.NormAT(b)
	if normATb == 0 {
		normATb = 1
	}
	start := time.Now()
	sweep := func(int) int { s.Iterations(x, b, p.a.Cols); return 1 }
	if p.sequential {
		r := make([]float64, p.a.Rows)
		p.a.MulVec(r, x)
		vec.Sub(r, b, r)
		sweep = func(int) int { s.SequentialIterations(x, r, p.a.Cols); return 1 }
	}
	prog, err := outer.Run(ctx, opts.Tol, opts.MaxSweeps, opts.CheckEvery,
		sweep, func() float64 { return s.LSQResidual(x, b) / normATb })
	return p.settle(ctx, prog, err, p.a.Cols, x, opts, start)
}

func (p *lsqPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p.Solve, bs, xs, opts)
}

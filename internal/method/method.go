// Package method is the unified solver registry: every solver family in
// the repository — AsyRGS and its ablation variants, synchronous RGS,
// (flexible) conjugate gradients, the classical stationary and chaotic
// baselines, randomized Kaczmarz, and the §8 least-squares coordinate
// descent — is wrapped behind one context-cancellable Method interface
// with normalized options and results.
//
// The registry removes the per-method switch statements that used to be
// duplicated across cmd/asysolve, cmd/asybench and internal/bench: a new
// solver or scenario lands as one Register call and every driver, the
// asyrgsd serving daemon, and the cross-method conformance suite pick it
// up automatically.
package method

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// Errors returned by registry lookups and solves.
var (
	// ErrUnknownMethod is returned by Get for unregistered names.
	ErrUnknownMethod = errors.New("method: unknown method")
	// ErrNotConverged is returned when a sweep budget is exhausted before
	// the requested tolerance; the iterate still holds the best
	// approximation computed.
	ErrNotConverged = errors.New("method: did not reach the requested tolerance")
)

// Kind classifies the system shapes a method accepts.
type Kind int

const (
	// SPD methods solve square symmetric positive definite systems
	// A·x = b and report the relative residual ‖b−Ax‖₂/‖b‖₂.
	SPD Kind = iota
	// LeastSquares methods minimise ‖A·x−b‖₂ for tall systems and report
	// the relative normal-equation residual ‖Aᵀ(b−Ax)‖₂/‖Aᵀb‖₂.
	LeastSquares
)

// String names the kind for tables and logs.
func (k Kind) String() string {
	if k == LeastSquares {
		return "least-squares"
	}
	return "spd"
}

// Opts are the normalized solve options shared by every registered
// method. The zero value is usable: methods fall back to their own
// defaults for every field.
type Opts struct {
	// Tol is the relative convergence tolerance (residual for SPD
	// methods, normal-equation residual for least-squares methods).
	// Zero or negative runs the full sweep budget — the fixed-work mode
	// the bench ablation tables use.
	Tol float64

	// MaxSweeps caps the work: one sweep is n coordinate updates (or one
	// Krylov iteration). Zero means 1000.
	MaxSweeps int

	// Workers is the goroutine count for parallel methods; zero means
	// GOMAXPROCS. Inherently sequential methods (rgs, gs, lsqcd) ignore
	// it.
	Workers int

	// Beta is the relaxation step size where a method has one; zero
	// means the method's default.
	Beta float64

	// Seed keys the direction streams of the randomized methods.
	Seed uint64

	// Inner is the number of preconditioner sweeps per FCG application;
	// zero means 2 (the paper's fastest Table 1 configuration).
	Inner int

	// QueueCap is the per-peer message-queue budget of the sharded
	// distributed-memory backend (asyrgs-distmem): each rank's inbox holds
	// QueueCap·(workers−1)+1 updates, the physical realisation of the
	// delay bound τ. Zero means 4. Shared-memory methods ignore it.
	QueueCap int

	// Chunk is the iteration-claiming granularity of the asynchronous
	// coordinate methods: a worker grabs Chunk global iteration indices
	// from the shared counter per CAS and generates that block's random
	// directions into a local buffer in one pass. Zero auto-sizes from
	// the budget and worker count. The direction at index j is a pure
	// function of (seed, j), so Chunk trades contention against tail
	// imbalance without changing the direction multiset. Methods without
	// a claiming counter ignore it.
	Chunk int

	// CheckEvery is the number of sweeps between residual evaluations and
	// context-cancellation checks; zero means 1 (16 for the stationary
	// methods, whose per-chunk setup cost is higher and which stop early
	// within a chunk). Raising it amortizes the Θ(nnz) residual over
	// more sweeps at the cost of coarser stopping.
	CheckEvery int

	// Precision is read by nothing: every method stores and iterates in
	// float64. The field remains only so existing callers that set it
	// keep compiling; it will be deleted.
	Precision string

	// XStar, when non-nil, is the known solution; methods then fill
	// Result.ANormErr with the relative A-norm error (SPD kinds only).
	XStar []float64

	// MeasureDelay enables asynchrony bookkeeping (Result.ObservedTau)
	// on the methods that support it. Off by default: the per-iteration
	// instrumentation would skew the timing columns of the benchmark
	// tables.
	MeasureDelay bool

	// Throttle, when non-nil, is invoked by the asynchronous methods
	// before every iteration with the worker index and iteration number —
	// the fault-injection hook of the bench experiments. Other methods
	// ignore it. Must be safe for concurrent use.
	Throttle func(worker int, iteration uint64)
}

// Result is the normalized outcome every method reports.
type Result struct {
	// Method is the registry name that produced this result.
	Method string
	// Residual is the final relative residual (see Kind for the norm).
	Residual float64
	// Converged reports whether Tol was reached within the budget.
	Converged bool
	// Sweeps is the number of sweeps (or Krylov iterations) performed.
	Sweeps int
	// Iterations is the total single-coordinate update count where the
	// method is coordinate-wise; for Krylov methods it equals Sweeps.
	Iterations uint64
	// Wall is the solve's wall-clock time.
	Wall time.Duration
	// ObservedTau is the measured asynchrony bound τ̂ (0 for synchronous
	// methods).
	ObservedTau int
	// Messages counts updates shipped across the emulated network by the
	// sharded distributed-memory backend; zero for shared-memory methods.
	Messages uint64
	// MaxQueue is the largest message backlog the sharded backend observed
	// on any rank's inbox at a send; zero for shared-memory methods.
	MaxQueue int
	// ANormErr is the relative A-norm error ‖x−x*‖_A/‖x*‖_A when
	// Opts.XStar was supplied; NaN otherwise.
	ANormErr float64
}

// Method is one solver family behind the uniform entry point. Solve reads
// the system (a, b), iterates on x in place (x is also the initial
// guess), and honours ctx: a cancelled context stops the solve promptly
// and returns an error wrapping the context's error. On budget exhaustion
// Solve returns the Result plus ErrNotConverged.
type Method interface {
	Name() string
	Kind() Kind
	Solve(ctx context.Context, a *sparse.CSR, b, x []float64, opts Opts) (Result, error)
}

// withDefaults resolves zero option fields to the shared defaults.
func (o Opts) withDefaults() Opts {
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 1000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Inner <= 0 {
		o.Inner = 2
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 1
	}
	return o
}

// converged reports whether a residual meets the tolerance; a
// non-positive tolerance never converges (fixed-work mode).
func (o Opts) converged(res float64) bool {
	return o.Tol > 0 && res <= o.Tol
}

// finish stamps the shared trailing fields of a result: wall time, the
// A-norm error when the true solution is known, and the
// budget-exhaustion error.
func finish(res *Result, a *sparse.CSR, x []float64, opts Opts, start time.Time, kind Kind) error {
	res.Wall = time.Since(start)
	res.ANormErr = math.NaN()
	if kind == SPD && opts.XStar != nil && a.Rows == a.Cols {
		if nx := a.ANorm(opts.XStar); nx > 0 {
			res.ANormErr = a.ANormErr(x, opts.XStar) / nx
		}
	}
	if !res.Converged && opts.Tol > 0 {
		return ErrNotConverged
	}
	return nil
}

// ctxErr wraps a context error so callers can errors.Is it against
// context.Canceled / DeadlineExceeded while seeing which method stopped.
func ctxErr(name string, ctx context.Context) error {
	return &canceledError{name: name, err: ctx.Err()}
}

type canceledError struct {
	name string
	err  error
}

func (e *canceledError) Error() string { return "method " + e.name + ": " + e.err.Error() }
func (e *canceledError) Unwrap() error { return e.err }

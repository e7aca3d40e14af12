// Package asyrgs is an asynchronous randomized linear-solver library: a
// production-oriented Go implementation of
//
//	Avron, Druinsky, Gupta — "Revisiting Asynchronous Linear Solvers:
//	Provable Convergence Rate Through Randomization", IPDPS 2014
//	(extended version arXiv:1304.6475).
//
// The headline algorithm is AsyRGS: shared-memory asynchronous Randomized
// Gauss–Seidel for sparse symmetric positive definite systems, with a
// provably linear convergence rate under bounded-delay asynchrony. The
// library also provides the synchronous Randomized Gauss–Seidel iteration,
// conjugate gradients and Notay's Flexible-CG (with AsyRGS as a flexible
// preconditioner — the paper's recommended high-accuracy configuration),
// randomized Kaczmarz, the §8 asynchronous least-squares coordinate
// descent, spectral estimators, the paper's convergence-bound formulas, a
// bounded-delay execution simulator, and workload generators including a
// synthetic analogue of the paper's social-media Gram matrix.
//
// # Quick start
//
//	a := asyrgs.RandomSPD(10_000, 8, 1.5, 1)   // or read MatrixMarket
//	b := asyrgs.RandomRHS(10_000, 2)
//	s, err := asyrgs.NewSolver(a, asyrgs.Options{Workers: runtime.GOMAXPROCS(0)})
//	if err != nil { ... }
//	x := make([]float64, 10_000)
//	res, err := s.SolveAsync(x, b, 1e-6, 500, 5)
//
// For high accuracy, wrap AsyRGS in Flexible-CG:
//
//	pre := asyrgs.PrecondFunc(func(z, r []float64) { s.Precondition(z, r, 2) })
//	res, err := asyrgs.FlexibleCG(a, x, b, pre, asyrgs.FCGOptions{Tol: 1e-8})
//
// # Unified method registry and serving layer
//
// Every solver family is also registered in a unified method registry
// (see SolveMethod, GetMethod, MethodNames): one context-cancellable
// Solve entry point with normalized options and results, which
// cmd/asysolve and the bench ablation tables dispatch through. The
// cmd/asyrgsd daemon serves the registry over HTTP JSON — generator-spec
// or MatrixMarket solve requests, an LRU of prepared systems keyed by
// matrix hash, a worker-pool admission gate, and /healthz and /stats
// endpoints. The roster includes "asyrgs-distmem", the sharded
// distributed-memory backend: each rank sole-updates its own coordinate
// block and communicates only through bounded message queues — the
// paper's named future-work deployment, served like any other method.
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/asybench; its -exp flag lists every experiment.
package asyrgs

import (
	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/distmem"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sim"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/spectral"
	"github.com/asynclinalg/asyrgs/internal/stats"
	"github.com/asynclinalg/asyrgs/internal/theory"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// Sparse matrix types and I/O.
type (
	// Matrix is a compressed-sparse-row matrix, the central operand type.
	Matrix = sparse.CSR
	// MatrixCSC is the compressed-sparse-column view used by the
	// least-squares solver.
	MatrixCSC = sparse.CSC
	// Builder accumulates coordinate entries and compresses them to a
	// Matrix with ToCSR.
	Builder = sparse.COO
	// Scaling maps between a general SPD system and its unit-diagonal
	// rescaling (§3 of the paper).
	Scaling = sparse.Scaling
	// Partition selects a parallel SpMV row-partitioning strategy.
	Partition = sparse.Partition
	// Dense is a row-major dense block for multi-right-hand-side solves.
	Dense = vec.Dense
)

// Partition strategies for parallel matrix–vector products.
const (
	PartitionContiguous = sparse.PartitionContiguous
	PartitionRoundRobin = sparse.PartitionRoundRobin
)

// Matrix construction and I/O.
var (
	// NewBuilder returns an empty coordinate builder for a rows×cols matrix.
	NewBuilder = sparse.NewCOO
	// Identity returns the n×n identity matrix.
	Identity = sparse.Identity
	// ReadMatrixMarket parses a MatrixMarket coordinate stream.
	ReadMatrixMarket = sparse.ReadMM
	// WriteMatrixMarket writes coordinate real general format.
	WriteMatrixMarket = sparse.WriteMM
	// WriteMatrixMarketSymmetric writes the lower triangle of a symmetric
	// matrix.
	WriteMatrixMarketSymmetric = sparse.WriteMMSymmetric
	// UnitDiagonalScale rescales an SPD matrix to unit diagonal,
	// returning the Scaling that maps solutions back.
	UnitDiagonalScale = sparse.UnitDiagonalScale
	// NewDense allocates a zero rows×cols row-major block.
	NewDense = vec.NewDense
)

// Core solver (the paper's contribution).
type (
	// Options configure a Solver; see the field docs in internal/core.
	Options = core.Options
	// Solver runs synchronous Randomized Gauss–Seidel and asynchronous
	// AsyRGS iterations over a fixed matrix.
	Solver = core.Solver
	// Result reports a Solve/SolveAsync outcome.
	Result = core.Result
)

// Solver construction and sentinel errors.
var (
	// NewSolver validates the matrix and builds a Solver.
	NewSolver = core.New
	// ErrNotConverged is returned when an iteration budget is exhausted.
	ErrNotConverged = core.ErrNotConverged
	// ErrNotSquare rejects rectangular matrices.
	ErrNotSquare = core.ErrNotSquare
	// ErrZeroDiagonal rejects matrices with a zero diagonal entry.
	ErrZeroDiagonal = core.ErrZeroDiagonal
)

// Krylov methods and preconditioning.
type (
	// Preconditioner approximates z ≈ M⁻¹r for a fixed operator M.
	Preconditioner = krylov.Preconditioner
	// PrecondFunc adapts a function to the Preconditioner interface.
	PrecondFunc = krylov.PrecondFunc
	// CGOptions configure conjugate gradients.
	CGOptions = krylov.CGOptions
	// CGResult reports a CG run.
	CGResult = krylov.CGResult
	// FCGOptions configure Notay's Flexible-CG.
	FCGOptions = krylov.FCGOptions
	// FCGResult reports a Flexible-CG run.
	FCGResult = krylov.FCGResult
	// StationaryResult reports a Jacobi or Gauss–Seidel run.
	StationaryResult = krylov.StationaryResult
)

// Krylov and stationary solvers.
var (
	// CG solves an SPD system by (preconditioned) conjugate gradients.
	CG = krylov.CG
	// CGDense solves A·X = B for a multi-RHS block.
	CGDense = krylov.CGDense
	// FlexibleCG tolerates preconditioners that change per application,
	// such as AsyRGS.
	FlexibleCG = krylov.FlexibleCG
	// Jacobi runs the classical Jacobi iteration.
	Jacobi = krylov.Jacobi
	// GaussSeidel runs deterministic forward Gauss–Seidel sweeps.
	GaussSeidel = krylov.GaussSeidel
	// AsyncJacobi runs classical chaotic-relaxation Jacobi — the
	// deterministic asynchronous baseline the paper revisits.
	AsyncJacobi = krylov.AsyncJacobi
	// NewDiagonalPrecond builds a Jacobi preconditioner from a diagonal.
	NewDiagonalPrecond = krylov.NewDiagonal
)

// Least squares (§8) and Kaczmarz.
type (
	// LSQOptions configure the least-squares coordinate-descent solver.
	LSQOptions = lsq.Options
	// LSQSolver minimises ‖Ax−b‖₂ by randomized coordinate descent,
	// sequentially (iteration 20) or asynchronously (iteration 21).
	LSQSolver = lsq.Solver
	// KaczmarzOptions configure randomized Kaczmarz.
	KaczmarzOptions = kaczmarz.Options
	// KaczmarzSolver projects onto random row hyperplanes.
	KaczmarzSolver = kaczmarz.Solver
)

// Least-squares and Kaczmarz constructors.
var (
	// NewLSQ builds a least-squares solver for an overdetermined system.
	NewLSQ = lsq.New
	// NewKaczmarz builds a randomized Kaczmarz solver.
	NewKaczmarz = kaczmarz.New
)

// Convergence theory (Theorems 2–5).
type (
	// BoundParams bundles matrix and asynchrony parameters for evaluating
	// the paper's convergence bounds.
	BoundParams = theory.Params
	// SpectralEstimate holds λmin/λmax/κ estimates.
	SpectralEstimate = spectral.Estimate
)

// Theory and spectral estimation.
var (
	// Rho computes the consistent-read interference parameter ρ.
	Rho = theory.Rho
	// Rho2 computes the inconsistent-read interference parameter ρ₂.
	Rho2 = theory.Rho2
	// OptimalBeta returns the bound-optimal step size β̃ = 1/(1+2ρτ).
	OptimalBeta = theory.OptimalBeta
	// NewBoundParams assembles the bound inputs for one configuration.
	NewBoundParams = theory.NewParams
	// EstimateSpectrum estimates λmin, λmax and κ of an SPD matrix.
	EstimateSpectrum = spectral.EstimateSPD
	// EstimateCondition estimates κ with power + CG-based inverse power
	// iteration (the style of the paper's condition-estimator reference).
	EstimateCondition = spectral.CondEst
)

// Unified solver-method registry (internal/method): every solver family
// behind one uniform, context-cancellable entry point.
type (
	// SolveMethod is one registered solver family; Solve(ctx, A, b, x,
	// opts) iterates on x in place and honours context cancellation.
	SolveMethod = method.Method
	// MethodOpts are the normalized solve options shared by every method.
	MethodOpts = method.Opts
	// MethodResult is the normalized outcome (residual, A-norm error,
	// sweeps, wall time, observed asynchrony).
	MethodResult = method.Result
	// MethodKind classifies a method's accepted systems (SPD or
	// least squares).
	MethodKind = method.Kind
	// PreparedSystem is per-matrix solver state captured once by
	// PrepareMethod and reused across Solve/SolveBatch calls — the warm
	// half of the two-phase Prepare/Solve pipeline.
	PreparedSystem = method.PreparedSystem
	// MethodPreparer is implemented by methods whose per-matrix setup is
	// separable from iteration (all built-ins are).
	MethodPreparer = method.Preparer
)

// Registry access and method-kind constants.
var (
	// GetMethod looks a method up by registry name (e.g. "asyrgs", "cg",
	// "fcg", "kaczmarz", "lsqcd").
	GetMethod = method.Get
	// MethodNames lists every registered method name, sorted.
	MethodNames = method.Names
	// MethodsByKind lists the registered methods of one kind.
	MethodsByKind = method.ByKind
	// RegisterMethod adds a custom method to the registry; drivers, the
	// asyrgsd daemon, and the conformance suite pick it up by name.
	RegisterMethod = method.Register
	// ErrUnknownMethod is returned by GetMethod for unregistered names.
	ErrUnknownMethod = method.ErrUnknownMethod
	// PrepareMethod captures a method's per-matrix state (Gram/CSC views,
	// row norms, diagonal scaling, sampling tables) once; the returned
	// PreparedSystem then solves any number of right-hand sides paying
	// only iteration cost.
	PrepareMethod = method.Prepare
)

// Method kinds.
const (
	MethodSPD          = method.SPD
	MethodLeastSquares = method.LeastSquares
)

// Guarantee is the a-priori certificate returned by
// Solver.SolveWithGuarantee (the Theorem 2 discussion's
// occasional-synchronization scheme).
type Guarantee = core.Guarantee

// DelayHistogram is the power-of-two observed-delay histogram type; use
// it with Solver.DelayHistogram to analyse real executions.
type DelayHistogram = stats.Pow2Histogram

// Bounded-delay simulation (the enforced models of iterations (8)/(9)).
type (
	// DelayModel supplies read staleness for the simulator.
	DelayModel = sim.DelayModel
	// SimConfig configures a simulated run.
	SimConfig = sim.Config
	// SimTrace is the sampled error trajectory of a simulated run.
	SimTrace = sim.Trace
	// FixedDelay is the adversarial worst case allowed by Assumption A-3.
	FixedDelay = sim.FixedDelay
	// UniformDelay models random scheduler jitter.
	UniformDelay = sim.UniformDelay
	// GeometricDelay is the probabilistic delay profile of real
	// schedulers: mostly fresh reads, exponentially rare long delays.
	GeometricDelay = sim.GeometricDelay
	// ZeroDelay is the synchronous special case.
	ZeroDelay = sim.ZeroDelay
)

// Simulator entry points.
var (
	// SimulateConsistent runs the consistent-read iteration (8).
	SimulateConsistent = sim.RunConsistent
	// SimulateInconsistent runs the inconsistent-read iteration (9).
	SimulateInconsistent = sim.RunInconsistent
)

// Sharded distributed-memory backend (the paper's future-work
// deployment, also registered as the "asyrgs-distmem" method).
type (
	// DistConfig configures the message-passing sharded backend of the
	// restricted-randomization solver.
	DistConfig = distmem.Config
	// DistResult reports a distributed run (residual, traffic, backlog).
	DistResult = distmem.Result
	// DistPrepared is the sharded per-matrix state (ownership partition,
	// diagonal, per-rank streams) captured once by DistPrepare.
	DistPrepared = distmem.Prepared
	// DistSolver is a persistent pool of emulated ranks forked from a
	// DistPrepared; rounds and right-hand sides reuse its goroutines.
	DistSolver = distmem.Solver
	// DistPartition is the coordinate-ownership map of a sharded run.
	DistPartition = distmem.Partition
)

// Distributed solver entry points.
var (
	// DistSolve runs a fixed sweep budget on every emulated rank.
	DistSolve = distmem.Solve
	// DistSolveToTol iterates rounds of DistSolve to a tolerance,
	// accumulating message and backlog accounting across rounds.
	DistSolveToTol = distmem.SolveToTol
	// DistPrepare captures the sharded per-matrix state once; fork
	// Solvers from it for repeated runs.
	DistPrepare = distmem.Prepare
	// DistPartitionContiguous splits n coordinates into equal-width
	// blocks.
	DistPartitionContiguous = distmem.Contiguous
	// DistPartitionNNZBalanced splits rows into blocks of roughly equal
	// nonzero count, balancing per-round work on skewed matrices.
	DistPartitionNNZBalanced = distmem.NNZBalanced
)

// Workload generators.
type (
	// SocialGramOptions shape the synthetic social-media Gram matrix.
	SocialGramOptions = workload.SocialGramOptions
)

// Generators for test problems.
var (
	// SocialGram builds the synthetic analogue of the paper's test matrix.
	SocialGram = workload.SocialGram
	// DefaultSocialGram returns the harness's generator options.
	DefaultSocialGram = workload.DefaultSocialGram
	// Laplacian2D returns the 5-point grid Laplacian.
	Laplacian2D = workload.Laplacian2D
	// Laplacian3D returns the 7-point grid Laplacian.
	Laplacian3D = workload.Laplacian3D
	// RandomSPD returns a random diagonally dominant SPD matrix.
	RandomSPD = workload.RandomSPD
	// RandomOverdetermined returns a random tall sparse matrix.
	RandomOverdetermined = workload.RandomOverdetermined
	// RandomRHS returns a uniform right-hand side.
	RandomRHS = workload.RandomRHS
	// RHSForSolution returns b = A·x* with x* known.
	RHSForSolution = workload.RHSForSolution
	// MultiRHS returns an n×cols block of right-hand sides.
	MultiRHS = workload.MultiRHS
	// DescribeMatrix formats headline matrix statistics.
	DescribeMatrix = workload.Describe
)

// Package serve implements the asyrgsd HTTP serving layer: a JSON API
// that accepts MatrixMarket-or-generator-spec solve requests and
// dispatches them through the two-phase Prepare/Solve pipeline of the
// unified method registry. Two LRUs make repeated traffic cheap — one of
// built matrices keyed by matrix hash, one of prepared solver systems
// keyed by matrix×method×prep-opts, so a warm request pays only
// iteration cost (no parsing, no Gram/row-norm/diagonal setup). A
// worker-pool admission gate bounds concurrency. Each request runs its
// own solve behind the gate, so its answer depends only on the request;
// an explicit "bs" batch runs as one multi-RHS solve.
//
// Endpoints:
//
//	POST /solve    one solve request (SolveRequest → SolveResponse);
//	               set "bs" for an explicit multi-RHS batch
//	GET  /methods  the registry roster with kinds
//	GET  /healthz  liveness probe
//	GET  /stats    request, cache, batching and per-method counters plus
//	               per-endpoint and per-method latency summaries
//	GET  /metrics  the same counters and the raw latency histograms in
//	               Prometheus text exposition format
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/stats"
	"github.com/asynclinalg/asyrgs/internal/vec"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// Config sizes the daemon. The zero value is usable.
type Config struct {
	// MaxConcurrent bounds in-flight solves (the admission gate); zero
	// means GOMAXPROCS.
	MaxConcurrent int
	// QueueTimeout is how long a request may wait for an admission slot
	// before being rejected with 503; zero means 5s.
	QueueTimeout time.Duration
	// CacheSize is the built-matrix LRU capacity; zero means 16.
	CacheSize int
	// PrepCacheSize is the prepared-system LRU capacity; zero means
	// 4×CacheSize (several methods per cached matrix).
	PrepCacheSize int
	// SolveTimeout caps one solve's wall time; zero means 60s.
	SolveTimeout time.Duration
	// MaxDim rejects generator specs larger than this dimension; zero
	// means 1 << 20.
	MaxDim int
	// MaxBodyBytes caps the request body (inline MatrixMarket text can
	// be large); zero means 64 MiB.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.PrepCacheSize <= 0 {
		c.PrepCacheSize = 4 * c.CacheSize
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 60 * time.Second
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// MatrixSpec identifies the system to solve: either an inline
// MatrixMarket text or a named generator with its parameters. The spec's
// canonical form is hashed into the session-cache key.
type MatrixSpec struct {
	// Kind is one of mm|laplacian2d|laplacian3d|randomspd|socialgram|
	// overdetermined.
	Kind string `json:"kind"`
	// MM is the inline MatrixMarket coordinate text (kind "mm").
	MM string `json:"mm,omitempty"`
	// N is the generator dimension (grid side for Laplacians).
	N int `json:"n,omitempty"`
	// Rows/Cols size the overdetermined generator.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// NNZ is the per-row fill of the random generators.
	NNZ int `json:"nnz,omitempty"`
	// Dominance is the diagonal dominance of randomspd.
	Dominance float64 `json:"dominance,omitempty"`
	// Seed keys the generator.
	Seed uint64 `json:"seed,omitempty"`
}

// canonical returns the spec with per-kind defaults applied and fields
// the kind's generator never reads zeroed out. key() hashes this form,
// so two specs that build the identical matrix — {randomspd, NNZ:0} and
// {randomspd, NNZ:6}, or a Laplacian with a stray seed — share one
// cache entry instead of building and preparing the same system twice.
// build consumes the canonical form too, so defaults live here alone.
func (s MatrixSpec) canonical() MatrixSpec {
	c := MatrixSpec{Kind: s.Kind}
	switch s.Kind {
	case "mm":
		c.MM = s.MM
	case "laplacian2d", "laplacian3d":
		c.N = s.N
	case "randomspd":
		c.N, c.NNZ, c.Dominance, c.Seed = s.N, s.NNZ, s.Dominance, s.Seed
		if c.NNZ <= 0 {
			c.NNZ = 6
		}
		if c.Dominance <= 0 {
			c.Dominance = 1.5
		}
	case "socialgram":
		c.N, c.Seed = s.N, s.Seed
	case "overdetermined":
		c.Rows, c.Cols, c.NNZ, c.Seed = s.Rows, s.Cols, s.NNZ, s.Seed
		if c.NNZ <= 0 {
			c.NNZ = 6
		}
	default:
		// Unknown kinds keep their raw fields; build rejects them anyway.
		c = s
	}
	return c
}

// key returns the canonical cache key: the kind plus a short content
// hash of the canonicalized spec.
func (s MatrixSpec) key() string {
	c := s.canonical()
	h := sha256.New()
	if c.Kind == "mm" {
		h.Write([]byte(c.MM))
	} else {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%g|%d", c.Kind, c.N, c.Rows, c.Cols, c.NNZ, c.Dominance, c.Seed)
	}
	return c.Kind + ":" + hex.EncodeToString(h.Sum(nil))[:16]
}

// satMul multiplies two non-negative int64s, saturating at MaxInt64 so
// a hostile spec cannot overflow the dimension guard into acceptance.
func satMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// dims returns the dimensions the generator kinds will materialize —
// the grid-side field N expands to N² (laplacian2d) or N³ (laplacian3d)
// unknowns, which is what the daemon's MaxDim guard must bound; the
// spec field itself bounds nothing. "mm" returns zeros (its dimensions
// are known only after parsing) and unknown kinds return zeros too.
func (s MatrixSpec) dims() (rows, cols int64) {
	n := int64(s.N)
	switch s.Kind {
	case "laplacian2d":
		d := satMul(n, n)
		return d, d
	case "laplacian3d":
		d := satMul(satMul(n, n), n)
		return d, d
	case "randomspd", "socialgram":
		return n, n
	case "overdetermined":
		return int64(s.Rows), int64(s.Cols)
	default:
		return 0, 0
	}
}

// build materializes the spec into a CSR matrix. The dimension guard
// checks what the generator will actually allocate — a laplacian3d
// request with n=65536 describes a ~2.8e14-unknown system even though
// every spec field is small, and must be rejected before allocation.
func (s MatrixSpec) build(maxDim int) (*sparse.CSR, error) {
	s = s.canonical()
	if s.Kind != "mm" {
		if rows, cols := s.dims(); rows > int64(maxDim) || cols > int64(maxDim) {
			return nil, fmt.Errorf("generated system would be %d x %d, exceeding the daemon's dimension limit %d", rows, cols, maxDim)
		}
	}
	switch s.Kind {
	case "mm":
		// The limit applies to the declared size, before assembly
		// allocates for it.
		a, err := sparse.ReadMMLimit(strings.NewReader(s.MM), maxDim)
		if err != nil {
			return nil, fmt.Errorf("parsing MatrixMarket body: %w", err)
		}
		return a, nil
	case "laplacian2d":
		if s.N < 2 {
			return nil, errors.New("laplacian2d needs n >= 2 (grid side)")
		}
		return workload.Laplacian2D(s.N, s.N), nil
	case "laplacian3d":
		if s.N < 2 {
			return nil, errors.New("laplacian3d needs n >= 2 (grid side)")
		}
		return workload.Laplacian3D(s.N, s.N, s.N), nil
	case "randomspd":
		if s.N < 1 {
			return nil, errors.New("randomspd needs n >= 1")
		}
		if s.Dominance <= 1 {
			return nil, errors.New("randomspd needs dominance > 1")
		}
		return workload.RandomSPD(s.N, s.NNZ, s.Dominance, s.Seed), nil
	case "socialgram":
		if s.N < 2 {
			return nil, errors.New("socialgram needs n >= 2")
		}
		gram, _ := workload.SocialGram(workload.DefaultSocialGram(s.N, s.Seed))
		return gram, nil
	case "overdetermined":
		if s.Rows < 1 || s.Cols < 1 || s.Rows < s.Cols {
			return nil, errors.New("overdetermined needs rows >= cols >= 1")
		}
		return workload.RandomOverdetermined(s.Rows, s.Cols, s.NNZ, s.Seed), nil
	default:
		return nil, fmt.Errorf("unknown matrix kind %q (want mm|laplacian2d|laplacian3d|randomspd|socialgram|overdetermined)", s.Kind)
	}
}

// SolveRequest is the POST /solve body.
type SolveRequest struct {
	Matrix MatrixSpec `json:"matrix"`
	// Method is a registry name; see GET /methods.
	Method string `json:"method"`
	// B is the right-hand side; when empty one is generated from a known
	// solution (b = A·x*, SPD kinds) or uniformly (least squares), keyed
	// by RHSSeed.
	B       []float64 `json:"b,omitempty"`
	RHSSeed uint64    `json:"rhs_seed,omitempty"`
	// Bs is an explicit multi-RHS batch: all right-hand sides are solved
	// together against one prepared system (SolveResponse.Batch holds the
	// per-RHS outcomes). Mutually exclusive with B.
	Bs [][]float64 `json:"bs,omitempty"`
	// Solver knobs, mapped onto method.Opts. CheckEvery is the number of
	// sweeps between residual checks. Unset, asyrgs*, rgs, kaczmarz and
	// lsqcd* predict when to check: near the sweep at which the residuals
	// measured so far cross tol (see SolveResponse.Checks); asyncjacobi
	// and asyrgs-distmem check every 16 sweeps. cg, fcg, jacobi and gs
	// ignore it: cg, fcg and jacobi check their initial guess and every
	// iteration, gs every sweep, or once in fixed work.
	Tol        float64 `json:"tol,omitempty"`
	MaxSweeps  int     `json:"max_sweeps,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	Beta       float64 `json:"beta,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Inner      int     `json:"inner,omitempty"`
	CheckEvery int     `json:"check_every,omitempty"`
	// QueueCap is the per-peer message-queue budget of the sharded
	// distributed-memory backend (asyrgs-distmem); other methods ignore
	// it.
	QueueCap int `json:"queue_cap,omitempty"`
	// Chunk is the iteration-claiming granularity of the asynchronous
	// coordinate methods (indices grabbed from the shared counter per
	// atomic add); zero auto-sizes, and a larger value is capped at 4096.
	// The direction sequence is chunk-invariant, so this is purely a
	// performance knob.
	Chunk int `json:"chunk,omitempty"`
	// Precision must be "", "f64" or "float64": every method stores and
	// iterates in float64, and any other value is rejected with 400
	// before matrix work. No solver reads it.
	Precision string `json:"precision,omitempty"`
	// FixedWork runs the bench-style fixed-sweep mode: the solver spends
	// the whole MaxSweeps budget with no convergence target (tol is
	// ignored). Without it, a missing or non-positive tol defaults to
	// 1e-6.
	FixedWork bool `json:"fixed_work,omitempty"`
	// MeasureDelay enables asynchrony bookkeeping (observed_tau in the
	// response) at a small per-iteration instrumentation cost.
	MeasureDelay bool `json:"measure_delay,omitempty"`
	// IncludeSolution returns the iterate in the response (large!).
	IncludeSolution bool `json:"include_solution,omitempty"`
}

// opts maps the request knobs onto method.Opts. FixedWork zeroes the
// tolerance, which is the registry's fixed-sweep convention.
func (r SolveRequest) opts() method.Opts {
	tol := r.Tol
	if r.FixedWork {
		tol = 0
	}
	return method.Opts{
		Tol: tol, MaxSweeps: r.MaxSweeps, Workers: r.Workers,
		Beta: r.Beta, Seed: r.Seed, Inner: r.Inner,
		CheckEvery: r.CheckEvery, QueueCap: r.QueueCap, Chunk: r.Chunk,
		MeasureDelay: r.MeasureDelay,
	}
}

// BatchEntry is one right-hand side's outcome inside a batched response.
type BatchEntry struct {
	Residual  float64   `json:"residual"`
	Converged bool      `json:"converged"`
	Sweeps    int       `json:"sweeps"`
	X         []float64 `json:"x,omitempty"`
}

// SolveResponse is the POST /solve reply.
type SolveResponse struct {
	Method    string `json:"method"`
	Kind      string `json:"kind"`
	MatrixKey string `json:"matrix_key"`
	// CacheHit reports a built-matrix cache hit; PrepHit a prepared-system
	// cache hit (the request skipped the Prepare phase entirely).
	CacheHit bool `json:"cache_hit"`
	PrepHit  bool `json:"prep_hit"`
	// PrepMS is the wall time of this request's prepare phase — cache
	// lookup or fresh preparation, and any admission-gate wait.
	// Unquantized, unlike the /stats stage histograms, which bucket by
	// powers of two.
	PrepMS float64 `json:"prep_ms"`
	// BatchSize is the number of right-hand sides this request solved:
	// the length of its explicit bs, or 1.
	BatchSize   int     `json:"batch_size,omitempty"`
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	Residual    float64 `json:"residual"`
	Converged   bool    `json:"converged"`
	Sweeps      int     `json:"sweeps"`
	Iterations  uint64  `json:"iterations"`
	WallMS      float64 `json:"wall_ms"`
	ObservedTau int     `json:"observed_tau"`
	// Checks is the number of residuals the solve measured to decide
	// whether to stop; cg, fcg and jacobi count their initial guess too.
	// The columns of a block bs batch share one count; otherwise a batch
	// reports its largest.
	Checks int `json:"checks"`
	// Messages and MaxQueue report the sharded backend's network traffic
	// and worst inbox backlog; zero (omitted) for shared-memory methods.
	Messages uint64    `json:"messages,omitempty"`
	MaxQueue int       `json:"max_queue,omitempty"`
	ANormErr *float64  `json:"a_norm_err,omitempty"`
	X        []float64 `json:"x,omitempty"`
	// Batch holds the per-RHS outcomes of an explicit bs request; the
	// top-level Residual/Converged then summarize the worst column.
	Batch []BatchEntry `json:"batch,omitempty"`
}

// Stats is the GET /stats reply.
type Stats struct {
	Requests uint64 `json:"requests"`
	Solved   uint64 `json:"solved"`
	Errors   uint64 `json:"errors"`
	Rejected uint64 `json:"rejected"`
	// Panics counts worker panics contained by the serving layer (each
	// one answered 500 instead of killing the daemon).
	Panics    uint64  `json:"panics"`
	InFlight  int64   `json:"in_flight"`
	UptimeSec float64 `json:"uptime_sec"`
	// Cache counts the built-matrix LRU; PrepCache the prepared-system
	// LRU (a PrepCache hit skips Gram/row-norm/diagonal preparation).
	Cache     CacheStats `json:"cache"`
	PrepCache CacheStats `json:"prep_cache"`
	// Batches counts solves run behind the admission gate, one per
	// admitted request. CoalescedRequests counts the columns of explicit
	// bs requests with more than one (one 3-column request adds 3); a
	// single right-hand side adds none.
	Batches           uint64            `json:"batches"`
	CoalescedRequests uint64            `json:"coalesced_requests"`
	PerMethod         map[string]uint64 `json:"per_method"`
	// Latency summarizes request wall time per endpoint; MethodLatency
	// per registry method (microseconds, power-of-two buckets — the raw
	// cumulative histograms are on GET /metrics). Only methods that have
	// served at least one request appear.
	Latency       map[string]LatencySummary `json:"latency"`
	MethodLatency map[string]LatencySummary `json:"method_latency,omitempty"`
	// Stages summarizes per-request processing-stage durations
	// (build/prepare/queue/solve/respond, see stages.go); every stage
	// always appears so the block has a stable shape.
	Stages map[string]LatencySummary `json:"stages"`
	// SizeBands summarizes solved-request wall time by matrix size band
	// (bands.go: n < 1k, 1k–100k, > 100k); every band always appears.
	SizeBands map[string]LatencySummary `json:"size_bands"`
}

// CacheStats reports one session cache's counters. The invariant
// size == misses − evictions − drops holds at any quiescent point:
// every entry is created by exactly one miss and removed by exactly one
// eviction or failed-build drop.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Drops counts failed builds removed from the cache (never served
	// as hits).
	Drops uint64 `json:"drops"`
	// EvictSkips counts still-building entries the eviction scan passed
	// over instead of detaching an in-flight Prepare.
	EvictSkips uint64 `json:"evict_skips"`
	Size       int    `json:"size"`
	Capacity   int    `json:"capacity"`
}

// maxWorkers caps a request's workers at 4× the largest thread count in
// the paper's experiments. An asynchronous solve starts one goroutine per
// worker for every sweep and polls its deadline only between sweeps, so
// an unbounded count could hold an admission slot long past
// SolveTimeout.
const maxWorkers = 256

// errAtCapacity marks work shed at the admission gate.
var errAtCapacity = errors.New("serve: at capacity")

// errPanic marks a request whose build, prepare or solve panicked. The
// panic is contained (recovered, counted in panics_total) and converted
// into this error so the request fails with HTTP 500 while the daemon
// and every other in-flight request keep running.
var errPanic = errors.New("serve: worker panic")

// errEncode marks a reply that JSON cannot encode, such as a solve whose
// residual or A-norm error is NaN or ±Inf; the request fails with HTTP
// 500.
var errEncode = errors.New("serve: reply not encodable")

// gated runs fn behind an admission slot. It waits at most QueueTimeout
// for one (errAtCapacity) and gives up when ctx ends (ctx's error); an
// uncontended acquire takes the non-blocking fast path, so the warm path
// pays no timer setup, and a ctx already done is shed before claiming a
// slot. A panic in fn is counted and returned as errPanic, with the slot
// released: the daemon survives it, and a cache build resolves its
// entry's once-latch instead of wedging the key for every later request.
func (s *Server) gated(ctx context.Context, fn func() error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.gate <- struct{}{}:
	default:
		admit := time.NewTimer(s.cfg.QueueTimeout)
		select {
		case s.gate <- struct{}{}:
			admit.Stop()
		case <-admit.C:
			return errAtCapacity
		case <-ctx.Done():
			admit.Stop()
			return ctx.Err()
		}
	}
	defer func() {
		<-s.gate
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			err = fmt.Errorf("%w: %v", errPanic, rec)
		}
	}()
	return fn()
}

// solveItem is one right-hand side of a request's solve. Items are
// pooled: the sized float64 buffers survive reuse, so a warm request
// allocates no per-request vectors.
type solveItem struct {
	b, x []float64
	res  method.Result
	// Pooled backing storage: the iterate, a generated right-hand side,
	// its known solution, and the A-norm-error difference vector. b/x
	// above point into these on the pooled path (but to request-owned or
	// escaping slices otherwise).
	xBuf, bBuf, xsBuf, dBuf []float64
	// self avoids a slice allocation for a single right-hand side.
	self [1]*solveItem
}

// getItem returns a recycled solve item.
//
//asyrgs:noalloc
func (s *Server) getItem() *solveItem {
	if v, ok := s.itemPool.Get().(*solveItem); ok {
		return v
	}
	//asyrgs:alloc-ok cold pool-miss path; steady state always hits the pool
	return &solveItem{}
}

// putItem recycles an item once its solve has completed and the response
// no longer references its buffers.
// Request-scoped references are dropped here, not at getItem, so an
// idle pool does not pin a client's decoded right-hand side.
//
//asyrgs:noalloc
func (s *Server) putItem(it *solveItem) {
	it.b, it.x = nil, nil
	it.res = method.Result{}
	it.self[0] = nil
	s.itemPool.Put(it)
}

// sized returns buf resized to n, reallocating only when it cannot hold
// n entries. Contents are unspecified; callers overwrite.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// itemIterate readies the zero initial guess for an item. When the
// response will carry the solution the slice must escape the pool, so it
// is allocated fresh; otherwise the item's recycled buffer is used.
//
//asyrgs:noalloc
func (s *Server) itemIterate(it *solveItem, n int, escapes bool) []float64 {
	if escapes {
		//asyrgs:alloc-ok the solution slice escapes into the response, so it cannot come from the pooled buffer
		return make([]float64, n)
	}
	it.xBuf = sized(it.xBuf, n)
	x := it.xBuf
	for i := range x {
		x[i] = 0
	}
	return x
}

// Server is the asyrgsd HTTP daemon state.
type Server struct {
	cfg         Config
	matrixCache *sessionCache[*sparse.CSR]
	prepCache   *sessionCache[method.PreparedSystem]
	gate        chan struct{}
	mux         *http.ServeMux
	start       time.Time

	// retryAfter is the precomputed Retry-After header value for 503
	// responses, derived from the queue timeout at construction.
	retryAfter string

	requests  atomic.Uint64
	solved    atomic.Uint64
	errs      atomic.Uint64
	rejected  atomic.Uint64
	panics    atomic.Uint64
	inFlight  atomic.Int64
	batches   atomic.Uint64
	coalesced atomic.Uint64

	methodMu sync.Mutex
	byMethod map[string]uint64

	// itemPool recycles solveItems with their sized right-hand-side and
	// iterate buffers across requests, so warm traffic allocates no
	// per-request vectors (O(1) garbage per request regardless of matrix
	// dimension).
	itemPool sync.Pool

	// Latency histograms (µs): per endpoint, per registry method, and
	// per processing stage (stages.go). All maps are built complete at
	// construction and never written afterwards, so handlers read them
	// without locking; the histograms themselves are atomic.
	endpointLat map[string]*stats.AtomicPow2Histogram
	methodLat   map[string]*stats.AtomicPow2Histogram
	stageLat    map[string]*stats.AtomicPow2Histogram
	// bandLat routes solved-request latency by matrix size band
	// (bands.go), so dimension-dominated latency populations are not
	// mixed in one histogram.
	bandLat map[string]*stats.AtomicPow2Histogram
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		matrixCache: newSessionCache[*sparse.CSR](cfg.CacheSize),
		prepCache:   newSessionCache[method.PreparedSystem](cfg.PrepCacheSize),
		gate:        make(chan struct{}, cfg.MaxConcurrent),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		byMethod:    map[string]uint64{},
		endpointLat: map[string]*stats.AtomicPow2Histogram{},
		methodLat:   map[string]*stats.AtomicPow2Histogram{},
		stageLat:    map[string]*stats.AtomicPow2Histogram{},
		bandLat:     map[string]*stats.AtomicPow2Histogram{},
	}
	// Retry-After must be a positive integer of seconds; round the queue
	// timeout up so sub-second timeouts still hint a 1s backoff.
	s.retryAfter = strconv.Itoa(int(math.Ceil(cfg.QueueTimeout.Seconds())))
	if s.retryAfter == "0" {
		s.retryAfter = "1"
	}
	for _, ep := range endpoints {
		s.endpointLat[ep] = &stats.AtomicPow2Histogram{}
	}
	for _, name := range method.Names() {
		s.methodLat[name] = &stats.AtomicPow2Histogram{}
	}
	for _, st := range stageNames {
		s.stageLat[st] = &stats.AtomicPow2Histogram{}
	}
	for _, band := range bandNames {
		s.bandLat[band] = &stats.AtomicPow2Histogram{}
	}
	s.mux.HandleFunc("POST /solve", s.timed("/solve", s.handleSolve))
	s.mux.HandleFunc("GET /methods", s.timed("/methods", s.handleMethods))
	s.mux.HandleFunc("GET /healthz", s.timed("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /stats", s.timed("/stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.timed("/metrics", s.handleMetrics))
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// replyBufs recycles the buffers writeJSON encodes replies into; a reply
// with a solution carries the whole x (~400 KB on a 20,000-row upload).
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON sends v as a JSON reply with status code. It encodes v in
// full before it sends any header, so a value JSON cannot encode (a NaN
// or ±Inf) sends nothing and returns an error wrapping errEncode, and the
// caller can still answer with an error status. Only a solve's reply can
// fail: the other replies hold strings, counters and finite latency
// summaries, so their callers drop the error.
func writeJSON(w http.ResponseWriter, code int, v any) error {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("%w: %v", errEncode, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client has gone: there is no one to tell.
	_, _ = w.Write(buf.Bytes())
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_ = writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	var out []entry
	for _, m := range method.All() {
		out = append(out, entry{Name: m.Name(), Kind: m.Kind().String()})
	}
	_ = writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	_ = writeJSON(w, http.StatusOK, s.snapshot())
}

// counterSnapshot assembles the counter fields shared by GET /stats and
// GET /metrics. Every field is read from an atomic or under its mutex
// (the per-method map copy, the cache counters), so a snapshot taken
// under concurrent load is free of torn reads: each counter is a value
// that existed at some instant during the call.
func (s *Server) counterSnapshot() Stats {
	s.methodMu.Lock()
	perMethod := make(map[string]uint64, len(s.byMethod))
	for k, v := range s.byMethod {
		perMethod[k] = v
	}
	s.methodMu.Unlock()
	return Stats{
		Requests:          s.requests.Load(),
		Solved:            s.solved.Load(),
		Errors:            s.errs.Load(),
		Rejected:          s.rejected.Load(),
		Panics:            s.panics.Load(),
		InFlight:          s.inFlight.Load(),
		UptimeSec:         time.Since(s.start).Seconds(),
		Cache:             s.matrixCache.stats(s.cfg.CacheSize),
		PrepCache:         s.prepCache.stats(s.cfg.PrepCacheSize),
		Batches:           s.batches.Load(),
		CoalescedRequests: s.coalesced.Load(),
		PerMethod:         perMethod,
	}
}

// snapshot is the full GET /stats reply: the counters plus the latency
// summaries (each histogram snapshot is one atomic pass per bucket).
// GET /metrics skips the summarization and renders the raw histograms
// itself.
func (s *Server) snapshot() Stats {
	st := s.counterSnapshot()
	st.Latency = make(map[string]LatencySummary, len(s.endpointLat))
	for ep, h := range s.endpointLat {
		st.Latency[ep] = summarize(h.Snapshot(), h.Sum())
	}
	st.MethodLatency = make(map[string]LatencySummary)
	for name, h := range s.methodLat {
		if snap := h.Snapshot(); snap.Total() > 0 {
			st.MethodLatency[name] = summarize(snap, h.Sum())
		}
	}
	st.Stages = s.stageSummaries()
	st.SizeBands = s.bandSummaries()
	return st
}

// solveCall carries one /solve request through the stages of
// handleSolve; each stage fills in its own fields.
type solveCall struct {
	// decode
	req  SolveRequest
	m    method.Method
	opts method.Opts
	key  string // the matrix cache key
	// build
	a   *sparse.CSR
	hit bool
	// prepare
	ps       method.PreparedSystem
	prepHit  bool
	prepWall time.Duration
	// right-hand sides; xstar is the known solution of a generated b.
	items []*solveItem
	xstar []float64
}

// handleSolve runs a /solve request through its stages: decode → build →
// prepare → right-hand sides → queue and solve → respond. Each stage
// returns an error, which answer turns into the reply's status; build,
// prepare, queue, solve and respond record their own spans (stages.go).
// A request counts as solved only once its reply is sent.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	start := time.Now()
	var c solveCall
	if err := s.decode(w, r, &c); err != nil {
		s.answer(w, err)
		return
	}
	// Per-method latency covers the whole request — cache lookups,
	// queueing at the gate, and the solve itself — which is what a client
	// of that method experiences.
	if hist := s.methodLat[c.req.Method]; hist != nil {
		defer func() { hist.Observe(uint64(time.Since(start).Microseconds())) }()
	}
	// Recycle the items on every way out, so pool churn does not spike
	// exactly when the server is shedding load. By then the solve has
	// finished and the response is written, so nothing references the
	// pooled buffers (escaping iterates are allocated fresh, see
	// itemIterate).
	defer func() {
		for _, it := range c.items {
			s.putItem(it)
		}
	}()
	err := s.build(&c)
	if err == nil {
		err = s.prepare(&c)
	}
	if err == nil {
		err = s.rhs(&c)
	}
	if err == nil {
		err = s.solve(r.Context(), &c)
	}
	solvedIn := time.Since(start)
	if err == nil {
		err = s.respond(w, &c)
	}
	if err != nil {
		s.answer(w, err)
		return
	}
	s.solved.Add(1)
	s.observeBand(c.a.Rows, solvedIn)
	s.methodMu.Lock()
	s.byMethod[c.req.Method]++
	s.methodMu.Unlock()
}

// answer writes a failed /solve's reply; its status follows from err
// alone. A request shed at the admission gate (503 with Retry-After) or
// abandoned by its client (503) counts as rejected, not as an error, so
// the errors counter keeps its alerting signal. Retry-After is derived
// from the queue timeout: the server's own shedding horizon is the
// honest backoff hint. A timed-out build, prepare or solve answers 504, a
// contained panic or an unencodable reply 500 (the input may be fine; the
// method is not), a solve that diverged to a NaN or ±Inf residual 422 (a
// well-formed request this method cannot solve), and anything else is the
// client's error, 400.
func (s *Server) answer(w http.ResponseWriter, err error) {
	code, count := http.StatusBadRequest, &s.errs
	switch {
	case errors.Is(err, method.ErrNonFinite):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, errAtCapacity):
		code, count = http.StatusServiceUnavailable, &s.rejected
		w.Header().Set("Retry-After", s.retryAfter)
		err = fmt.Errorf("server at capacity (%d solves in flight); retry later", s.cfg.MaxConcurrent)
	case errors.Is(err, context.Canceled):
		code, count = http.StatusServiceUnavailable, &s.rejected
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, errPanic), errors.Is(err, errEncode):
		code = http.StatusInternalServerError
	}
	count.Add(1)
	_ = writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decode reads the request body into c.req, applies its defaults,
// validates it, and resolves its method, options and matrix key. It
// records no span: decode stays in the unstaged remainder.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, c *solveCall) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	req := &c.req
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if req.Method == "" {
		req.Method = "asyrgs"
	}
	// API clients omitting tol expect a sensible convergence target;
	// fixed-work mode is requested explicitly via fixed_work.
	if req.Tol <= 0 && !req.FixedWork {
		req.Tol = 1e-6
	}
	switch {
	case len(req.B) > 0 && len(req.Bs) > 0:
		return errors.New("b and bs are mutually exclusive")
	case req.Precision != "" && req.Precision != "f64" && req.Precision != "float64":
		// Every method stores and iterates in float64.
		return fmt.Errorf("unsupported precision %q (only \"f64\")", req.Precision)
	case req.Workers > maxWorkers:
		return fmt.Errorf("workers %d exceeds the daemon's limit of %d", req.Workers, maxWorkers)
	}
	var err error
	if c.m, err = method.Get(req.Method); err != nil {
		return err
	}
	c.opts, c.key = req.opts(), req.Matrix.key()
	return nil
}

// build fetches the matrix from the matrix cache or builds it (stage
// "build"), then checks that its shape suits the method. Concurrent
// requests for one key share a single build, and a build holds an
// admission slot, so a burst of distinct systems cannot drive setup
// concurrency past MaxConcurrent (cache hits skip the gate).
func (s *Server) build(c *solveCall) (err error) {
	start := time.Now()
	c.a, c.hit, err = s.matrixCache.getOrBuild(c.key, func() (a *sparse.CSR, err error) {
		err = s.gated(context.Background(), func() (err error) {
			a, err = c.req.Matrix.build(s.cfg.MaxDim)
			return err
		})
		return a, err
	})
	s.observeStage("build", start)
	switch {
	case err != nil:
		return fmt.Errorf("building matrix: %w", err)
	case c.m.Kind() == method.SPD && c.a.Rows != c.a.Cols:
		return fmt.Errorf("method %q needs a square system, matrix is %dx%d", c.req.Method, c.a.Rows, c.a.Cols)
	case c.m.Kind() == method.LeastSquares && c.a.Rows < c.a.Cols:
		return fmt.Errorf("method %q needs rows >= cols, matrix is %dx%d", c.req.Method, c.a.Rows, c.a.Cols)
	}
	return nil
}

// prepare fetches the prepared system from the prep cache or runs the
// method's Prepare (stage "prepare"), shared and gated as build is.
//
// The cache key is the matrix key and the method name. A method
// implementing method.PrepKeyer appends its PrepKey, which names the
// options its Prepare consumes: among the built-ins only asyrgs-distmem
// does, with its deployment shape (workers, queue budget, β, seed). Knobs
// that only configure the iteration stay out of the key, so traffic
// varying only those shares one prepared entry. A new prepare-time option
// belongs in PrepKey, not here, or it is keyed twice.
func (s *Server) prepare(c *solveCall) (err error) {
	start := time.Now()
	key := c.key + "|" + c.req.Method
	if pk, ok := c.m.(method.PrepKeyer); ok {
		key += "|" + pk.PrepKey(c.opts)
	}
	c.ps, c.prepHit, err = s.prepCache.getOrBuild(key, func() (ps method.PreparedSystem, err error) {
		err = s.gated(context.Background(), func() (err error) {
			// The prepared system is shared by every request waiting on
			// this once-latch and by all future cache hits, so the build
			// must not ride the first arrival's request context: its
			// client disconnecting mid-Prepare would fail every waiter
			// with context.Canceled. Detach to the server's lifetime,
			// capped by the per-solve budget.
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.SolveTimeout)
			defer cancel()
			ps, err = method.Prepare(ctx, c.m, c.a, c.opts)
			return err
		})
		return ps, err
	})
	c.prepWall = s.observeStage("prepare", start)
	if err != nil {
		return fmt.Errorf("preparing system: %w", err)
	}
	return nil
}

// rhs readies the right-hand sides and zero iterates in pooled solve
// items: an explicit bs batch, an explicit b, or a generated b — from a
// known solution x* for SPD methods, so the reply can report the A-norm
// error, or uniformly for least squares. On the warm path the iterate and
// a generated b land in recycled buffers, so per-request garbage stays
// O(1) in the matrix dimension. Like decode, it records no span.
func (s *Server) rhs(c *solveCall) error {
	a, req := c.a, &c.req
	if len(req.Bs) > 0 {
		for i, b := range req.Bs {
			if len(b) != a.Rows {
				return fmt.Errorf("bs[%d] has %d entries, matrix has %d rows", i, len(b), a.Rows)
			}
			it := s.getItem()
			it.b = b
			it.x = s.itemIterate(it, a.Cols, req.IncludeSolution)
			c.items = append(c.items, it)
		}
		return nil
	}
	it := s.getItem()
	it.self[0] = it
	c.items = it.self[:]
	b := req.B
	switch {
	case len(b) == 0:
		it.bBuf = sized(it.bBuf, a.Rows)
		b = it.bBuf
		if c.m.Kind() == method.SPD {
			it.xsBuf = sized(it.xsBuf, a.Cols)
			workload.RHSForSolutionInto(a, req.RHSSeed, b, it.xsBuf)
			c.xstar = it.xsBuf
		} else {
			workload.RandomRHSInto(req.RHSSeed, b)
		}
	case len(b) != a.Rows:
		return fmt.Errorf("right-hand side has %d entries, matrix has %d rows", len(b), a.Rows)
	}
	it.b = b
	it.x = s.itemIterate(it, a.Cols, req.IncludeSolution)
	return nil
}

// solve runs the request's solve behind the admission gate: a lone
// right-hand side through Solve, an explicit bs batch through
// SolveBatch. It is the only place solves run. Stage "queue" is the wait
// for a slot and stage "solve" the solve; a request shed at the gate
// records neither. The solve context is the request's, capped at
// SolveTimeout from admission, so a solve whose client went away, or
// that ran out its budget, stops and frees its slot. A budget-exhausted
// solve (method.ErrNotConverged) is still a well-formed answer.
func (s *Server) solve(parent context.Context, c *solveCall) error {
	queued := time.Now()
	err := s.gated(parent, func() error {
		s.observeStage("queue", queued)
		defer s.observeStage("solve", time.Now())
		n := len(c.items)
		s.inFlight.Add(int64(n))
		defer s.inFlight.Add(-int64(n))
		s.batches.Add(1)
		if n > 1 {
			s.coalesced.Add(uint64(n))
		}
		ctx, cancel := context.WithTimeout(parent, s.cfg.SolveTimeout)
		defer cancel()
		if n == 1 {
			it := c.items[0]
			var err error
			it.res, err = c.ps.Solve(ctx, it.b, it.x, c.opts)
			return err
		}
		bs := make([][]float64, n)
		xs := make([][]float64, n)
		for i, it := range c.items {
			bs[i], xs[i] = it.b, it.x
		}
		results, err := c.ps.SolveBatch(ctx, bs, xs, c.opts)
		for i, it := range c.items {
			if i < len(results) {
				it.res = results[i]
			}
		}
		return err
	})
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		return fmt.Errorf("solve failed: %w", err)
	}
	return nil
}

// respond assembles and writes the 200 reply (stage "respond"). A reply
// JSON cannot encode is not sent: respond returns writeJSON's error for
// answer. For a generated right-hand side it reports the A-norm error
// ‖x−x*‖_A/‖x*‖_A; an explicit bs batch reports per-column outcomes and
// summarizes the worst column at the top level.
func (s *Server) respond(w http.ResponseWriter, c *solveCall) error {
	start := time.Now()
	it := c.items[0]
	resp := SolveResponse{
		Method: it.res.Method, Kind: c.m.Kind().String(), MatrixKey: c.key,
		CacheHit: c.hit, PrepHit: c.prepHit,
		PrepMS:    float64(c.prepWall) / float64(time.Millisecond),
		BatchSize: len(c.items),
		Rows:      c.a.Rows, Cols: c.a.Cols,
		Residual: it.res.Residual, Converged: it.res.Converged,
		Sweeps: it.res.Sweeps, Checks: it.res.Checks, Iterations: it.res.Iterations,
		WallMS: float64(it.res.Wall) / float64(time.Millisecond), ObservedTau: it.res.ObservedTau,
		Messages: it.res.Messages, MaxQueue: it.res.MaxQueue,
	}
	// b = A·x*, so ‖x*‖²_A = x*ᵀb: one pass over A, for ‖x−x*‖_A.
	if c.xstar != nil {
		if nx2 := vec.Dot(c.xstar, it.b); nx2 > 0 {
			// ‖x−x*‖_A through the item's pooled difference buffer
			// (sparse.ANormErr would allocate an n-vector per request).
			it.dBuf = sized(it.dBuf, len(c.xstar))
			for i := range it.dBuf {
				it.dBuf[i] = it.x[i] - c.xstar[i]
			}
			v := c.a.ANorm(it.dBuf) / math.Sqrt(nx2)
			resp.ANormErr = &v
		}
	}
	if len(c.req.Bs) > 0 {
		for _, bi := range c.items {
			entry := BatchEntry{Residual: bi.res.Residual, Converged: bi.res.Converged, Sweeps: bi.res.Sweeps}
			if c.req.IncludeSolution {
				entry.X = bi.x
			}
			resp.Batch = append(resp.Batch, entry)
			if bi.res.Residual > resp.Residual {
				resp.Residual = bi.res.Residual
			}
			resp.Converged = resp.Converged && bi.res.Converged
			resp.Sweeps = max(resp.Sweeps, bi.res.Sweeps)
			resp.Checks = max(resp.Checks, bi.res.Checks)
		}
	} else if c.req.IncludeSolution {
		resp.X = it.x
	}
	if err := writeJSON(w, http.StatusOK, resp); err != nil {
		return err
	}
	s.observeStage("respond", start)
	return nil
}

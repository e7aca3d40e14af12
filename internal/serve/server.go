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
	// Solver knobs, mapped onto method.Opts.
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
	// CAS); zero auto-sizes. The direction sequence is chunk-invariant,
	// so this is purely a performance knob.
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

// prepKey is the matrix × method part of the prepared-system LRU key.
// For a method implementing method.PrepKeyer, handleSolve appends its
// PrepKey, which names the options its Prepare consumes: among the
// built-ins only asyrgs-distmem does, with its deployment shape (workers,
// queue budget, β, seed). Knobs that only configure the iteration stay
// out of the key, so traffic varying only those shares one prepared
// entry. A new prepare-time option belongs in PrepKey, not here, or it
// is keyed twice.
func (r SolveRequest) prepKey(matrixKey string) string {
	return matrixKey + "|" + r.Method
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
// worker for every check_every chunk and polls its deadline only between
// chunks, so an unbounded count could hold an admission slot long past
// SolveTimeout.
const maxWorkers = 256

// errAtCapacity marks work shed at the admission gate.
var errAtCapacity = errors.New("serve: at capacity")

// errPanic marks a request whose build, prepare or solve panicked. The
// panic is contained (recovered, counted in panics_total) and converted
// into this error so the request fails with HTTP 500 while the daemon
// and every other in-flight request keep running.
var errPanic = errors.New("serve: worker panic")

// acquireGateCtx claims an admission slot, waiting at most QueueTimeout
// and aborting when parent ends. It returns nil on success (the caller
// must releaseGate), errAtCapacity on timeout, or the parent's error.
// An uncontended acquire takes the non-blocking fast path, so the warm
// request path pays no timer setup; a parent already cancelled is shed
// before claiming a slot.
func (s *Server) acquireGateCtx(parent context.Context) error {
	if err := parent.Err(); err != nil {
		return err
	}
	select {
	case s.gate <- struct{}{}:
		return nil
	default:
	}
	admit := time.NewTimer(s.cfg.QueueTimeout)
	defer admit.Stop()
	select {
	case s.gate <- struct{}{}:
		return nil
	case <-admit.C:
		return errAtCapacity
	case <-parent.Done():
		return parent.Err()
	}
}

// acquireGate is acquireGateCtx without a client to abort for (the
// cache-build paths). Callers that receive true must releaseGate.
func (s *Server) acquireGate() bool {
	return s.acquireGateCtx(context.Background()) == nil
}

func (s *Server) releaseGate() { <-s.gate }

// solveItem is one right-hand side of a request's solve. Items are
// pooled: the sized float64 buffers survive reuse, so a warm request
// allocates no per-request vectors.
type solveItem struct {
	b, x []float64
	res  method.Result
	err  error
	// Pooled backing storage: the iterate, a generated right-hand side,
	// its known solution, and the A-norm-error difference vector. b/x
	// above point into these on the pooled path (but to request-owned or
	// escaping slices otherwise).
	xBuf, bBuf, xsBuf, dBuf []float64
	// self avoids a slice allocation for a single right-hand side.
	self [1]*solveItem
	// dctx is the solve's pooled deadline context (see deadline.go); the
	// request's first item hosts it, sparing the context.WithTimeout
	// allocations per solve.
	dctx deadlineCtx
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
// idle pool does not pin a finished request's context or a client's
// decoded right-hand side.
//
//asyrgs:noalloc
func (s *Server) putItem(it *solveItem) {
	it.b, it.x = nil, nil
	it.dctx.parent = nil
	it.res, it.err = method.Result{}, nil
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errs.Add(1)
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// reject sheds a request at the admission gate: counted as rejected, not
// as an error, so the errors counter keeps its alerting signal. The 503
// carries a Retry-After derived from the queue timeout — the server's
// own shedding horizon is the honest backoff hint.
func (s *Server) reject(w http.ResponseWriter, format string, args ...any) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", s.retryAfter)
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
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

// runBatch runs one request's solve behind the admission gate: a lone
// right-hand side through Solve, an explicit bs batch through
// SolveBatch. It is the only place solves run. Each item's outcome lands
// in its res and err; start and end bracket the solve, and both are zero
// when the gate shed the request.
//
// The solve context is the request's context capped by the server's
// per-solve budget, so an abandoned request stops burning its admission
// slot.
func (s *Server) runBatch(parent context.Context, ps method.PreparedSystem, opts method.Opts, items []*solveItem) (start, end time.Time) {
	// Admission gate: bound concurrent solves, waiting at most
	// QueueTimeout for a slot and shedding the request if its client goes
	// away (or already went away) while queued.
	if err := s.acquireGateCtx(parent); err != nil {
		for _, it := range items {
			it.err = err
		}
		return
	}
	defer s.releaseGate()
	s.inFlight.Add(int64(len(items)))
	defer s.inFlight.Add(-int64(len(items)))
	s.batches.Add(1)
	if len(items) > 1 {
		s.coalesced.Add(uint64(len(items)))
	}

	// Stamp the end on every way out, and contain solver panics: every
	// item gets errPanic. The gate-release and in-flight defers above
	// still run, so a panicking method cannot leak an admission slot.
	start = time.Now()
	defer func() {
		end = time.Now()
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			for _, it := range items {
				it.err = fmt.Errorf("%w: %v", errPanic, rec)
			}
		}
	}()

	// The solve budget rides the first item's pooled deadline context
	// instead of context.WithTimeout: every solver polls Err() between
	// chunks of work, and the pooled form sheds the timer, cancel closure
	// and context allocations per solve (see deadline.go).
	items[0].dctx.reset(parent, s.cfg.SolveTimeout)
	ctx := &items[0].dctx

	if len(items) == 1 {
		it := items[0]
		it.res, it.err = ps.Solve(ctx, it.b, it.x, opts)
		return
	}
	bs := make([][]float64, len(items))
	xs := make([][]float64, len(items))
	for i, it := range items {
		bs[i] = it.b
		xs[i] = it.x
	}
	results, err := ps.SolveBatch(ctx, bs, xs, opts)
	for i, it := range items {
		if i < len(results) {
			it.res = results[i]
		}
		it.err = err
	}
	return
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	start := time.Now()

	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Method == "" {
		req.Method = "asyrgs"
	}
	// API clients omitting tol expect a sensible convergence target;
	// fixed-work mode is requested explicitly via fixed_work.
	if req.Tol <= 0 && !req.FixedWork {
		req.Tol = 1e-6
	}
	if len(req.B) > 0 && len(req.Bs) > 0 {
		s.fail(w, http.StatusBadRequest, "b and bs are mutually exclusive")
		return
	}
	// Every method stores and iterates in float64; any other precision is
	// a client error, answered before any matrix work.
	switch req.Precision {
	case "", "f64", "float64":
	default:
		s.fail(w, http.StatusBadRequest, "unsupported precision %q (only \"f64\")", req.Precision)
		return
	}
	if req.Workers > maxWorkers {
		s.fail(w, http.StatusBadRequest, "workers %d exceeds the daemon's limit of %d", req.Workers, maxWorkers)
		return
	}
	m, err := method.Get(req.Method)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Per-method latency covers the whole request — cache lookups,
	// queueing at the gate, and the solve itself — which is what a client
	// of that method experiences.
	if hist := s.methodLat[req.Method]; hist != nil {
		defer func() { hist.Observe(uint64(time.Since(start).Microseconds())) }()
	}

	// Phase 1 — prepare (or fetch) the per-matrix state. Both caches use
	// a shared once-latch per key, so a thundering herd for one system
	// builds and prepares it exactly once; the build/prepare closures run
	// under the admission gate, so a burst of *distinct* systems cannot
	// drive setup concurrency past MaxConcurrent either (cache hits skip
	// the gate entirely).
	key := req.Matrix.key()
	buildStart := time.Now()
	a, hit, err := s.matrixCache.getOrBuild(key, func() (a *sparse.CSR, err error) {
		// Recover inside the build closure: a panic here would consume
		// the cache entry's once-latch without resolving it, wedging the
		// key for every future request. Converted to an error, the entry
		// resolves as a failed build and is dropped normally.
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				err = fmt.Errorf("%w: %v", errPanic, rec)
			}
		}()
		if !s.acquireGate() {
			return nil, errAtCapacity
		}
		defer s.releaseGate()
		return req.Matrix.build(s.cfg.MaxDim)
	})
	s.observeStage("build", time.Since(buildStart))
	switch {
	case errors.Is(err, errAtCapacity):
		s.reject(w, "server at capacity (%d solves in flight); retry later", s.cfg.MaxConcurrent)
		return
	case errors.Is(err, errPanic):
		s.fail(w, http.StatusInternalServerError, "building matrix: %v", err)
		return
	case err != nil:
		s.fail(w, http.StatusBadRequest, "building matrix: %v", err)
		return
	}
	if m.Kind() == method.SPD && a.Rows != a.Cols {
		s.fail(w, http.StatusBadRequest, "method %q needs a square system, matrix is %dx%d", req.Method, a.Rows, a.Cols)
		return
	}
	if m.Kind() == method.LeastSquares && a.Rows < a.Cols {
		s.fail(w, http.StatusBadRequest, "method %q needs rows >= cols, matrix is %dx%d", req.Method, a.Rows, a.Cols)
		return
	}
	opts := req.opts()
	prepKey := req.prepKey(key)
	if pk, ok := m.(method.PrepKeyer); ok {
		// A method whose Prepare consumes options contributes exactly
		// those fields to the cache key, so differently-prepared systems
		// never share an entry.
		prepKey += "|" + pk.PrepKey(opts)
	}
	prepStart := time.Now()
	ps, prepHit, err := s.prepCache.getOrBuild(prepKey, func() (ps method.PreparedSystem, err error) {
		// Same once-latch poisoning hazard as the matrix build above: a
		// panicking Prepare must resolve the entry with an error, not
		// wedge the key.
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				err = fmt.Errorf("%w: %v", errPanic, rec)
			}
		}()
		if !s.acquireGate() {
			return nil, errAtCapacity
		}
		defer s.releaseGate()
		// The prepared system is shared by every request waiting on this
		// once-latch and by all future cache hits, so the build must not
		// ride the first arrival's request context: its client
		// disconnecting mid-Prepare would fail every waiter with
		// context.Canceled. Detach to the server's lifetime, capped by the
		// per-solve budget.
		pctx, cancel := context.WithTimeout(context.Background(), s.cfg.SolveTimeout)
		defer cancel()
		return method.Prepare(pctx, m, a, opts)
	})
	prepWall := time.Since(prepStart)
	s.observeStage("prepare", prepWall)
	switch {
	case errors.Is(err, errAtCapacity):
		s.reject(w, "server at capacity (%d solves in flight); retry later", s.cfg.MaxConcurrent)
		return
	case errors.Is(err, errPanic):
		s.fail(w, http.StatusInternalServerError, "preparing system: %v", err)
		return
	case err != nil:
		s.fail(w, http.StatusBadRequest, "preparing system: %v", err)
		return
	}

	// Right-hand sides: explicit batch, explicit single, or generated
	// (with a known solution for SPD systems so the response can report
	// the A-norm error). Items come from the pool: on the warm path the
	// iterate and any generated right-hand side land in recycled buffers,
	// so per-request garbage stays O(1) in the matrix dimension.
	var items []*solveItem
	// Recycle on every exit path — success, rejection, or error — so
	// pool churn does not spike exactly when the server is shedding
	// load. By the time the handler returns, the solve (if any) has
	// finished and the response has been written, so nothing references
	// the pooled buffers (escaping iterates are allocated fresh, see
	// itemIterate).
	defer func() {
		for _, bi := range items {
			s.putItem(bi)
		}
	}()
	var xstar []float64
	explicitBatch := len(req.Bs) > 0
	switch {
	case explicitBatch:
		for i, b := range req.Bs {
			if len(b) != a.Rows {
				s.fail(w, http.StatusBadRequest, "bs[%d] has %d entries, matrix has %d rows", i, len(b), a.Rows)
				return
			}
			it := s.getItem()
			it.b = b
			it.x = s.itemIterate(it, a.Cols, req.IncludeSolution)
			items = append(items, it)
		}
	default:
		it := s.getItem()
		it.self[0] = it
		items = it.self[:]
		b := req.B
		if len(b) == 0 {
			it.bBuf = sized(it.bBuf, a.Rows)
			b = it.bBuf
			if m.Kind() == method.SPD {
				it.xsBuf = sized(it.xsBuf, a.Cols)
				workload.RHSForSolutionInto(a, req.RHSSeed, b, it.xsBuf)
				xstar = it.xsBuf
			} else {
				workload.RandomRHSInto(req.RHSSeed, b)
			}
		} else if len(b) != a.Rows {
			s.fail(w, http.StatusBadRequest, "right-hand side has %d entries, matrix has %d rows", len(b), a.Rows)
			return
		}
		it.b = b
		it.x = s.itemIterate(it, a.Cols, req.IncludeSolution)
	}

	// Phase 2 — solve. The queue stage is the admission-gate wait; a
	// request shed at the gate never started solving and records neither
	// stage.
	queued := time.Now()
	solveStart, solveEnd := s.runBatch(r.Context(), ps, opts, items)
	if !solveStart.IsZero() {
		s.observeStage("queue", solveStart.Sub(queued))
		s.observeStage("solve", solveEnd.Sub(solveStart))
	}
	it := items[0]
	switch {
	case it.err == nil || errors.Is(it.err, method.ErrNotConverged):
		// A budget-exhausted solve is still a well-formed answer.
	case errors.Is(it.err, errAtCapacity):
		s.reject(w, "server at capacity (%d solves in flight); retry later", s.cfg.MaxConcurrent)
		return
	case errors.Is(it.err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, "solve cancelled: %v", it.err)
		return
	case errors.Is(it.err, context.Canceled):
		// Only the request's own client going away cancels its solve —
		// shed, not an error.
		s.reject(w, "client went away during solve")
		return
	case errors.Is(it.err, errPanic):
		// A contained worker panic: the daemon survives, the request
		// reports a server fault (the input may be fine; the method is
		// not).
		s.fail(w, http.StatusInternalServerError, "solve failed: %v", it.err)
		return
	default:
		s.fail(w, http.StatusBadRequest, "solve failed: %v", it.err)
		return
	}

	s.solved.Add(1)
	s.observeBand(a.Rows, time.Since(start))
	s.methodMu.Lock()
	s.byMethod[req.Method]++
	s.methodMu.Unlock()

	respondStart := time.Now()
	resp := SolveResponse{
		Method: it.res.Method, Kind: m.Kind().String(), MatrixKey: key,
		CacheHit: hit, PrepHit: prepHit,
		PrepMS:    float64(prepWall) / float64(time.Millisecond),
		BatchSize: len(items),
		Rows:      a.Rows, Cols: a.Cols,
		Residual: it.res.Residual, Converged: it.res.Converged,
		Sweeps: it.res.Sweeps, Iterations: it.res.Iterations,
		WallMS: float64(it.res.Wall) / float64(time.Millisecond), ObservedTau: it.res.ObservedTau,
		Messages: it.res.Messages, MaxQueue: it.res.MaxQueue,
	}
	if xstar != nil && a.Rows == a.Cols {
		if nx := a.ANorm(xstar); nx > 0 {
			// ‖x−x*‖_A through the item's pooled difference buffer
			// (sparse.ANormErr would allocate an n-vector per request).
			it.dBuf = sized(it.dBuf, len(xstar))
			for i := range it.dBuf {
				it.dBuf[i] = it.x[i] - xstar[i]
			}
			v := a.ANorm(it.dBuf) / nx
			resp.ANormErr = &v
		}
	}
	if explicitBatch {
		for _, bi := range items {
			entry := BatchEntry{Residual: bi.res.Residual, Converged: bi.res.Converged, Sweeps: bi.res.Sweeps}
			if req.IncludeSolution {
				entry.X = bi.x
			}
			resp.Batch = append(resp.Batch, entry)
			if bi.res.Residual > resp.Residual {
				resp.Residual = bi.res.Residual
			}
			resp.Converged = resp.Converged && bi.res.Converged
			if bi.res.Sweeps > resp.Sweeps {
				resp.Sweeps = bi.res.Sweeps
			}
		}
	} else if req.IncludeSolution {
		resp.X = it.x
	}
	writeJSON(w, http.StatusOK, resp)
	s.observeStage("respond", time.Since(respondStart))
}

package main

// The traced run replays a workload's request stream in this process,
// calling each layer's public entry point the way the daemon's /solve
// handler does, and records a span around every call. Nothing inside the
// program is instrumented: the spans sit in this file, around the calls.
//
// Per request, the spans are a root "request" span and one child per layer
// call, in pipeline order:
//
//	serve.decode    json.Unmarshal into serve.SolveRequest   count: request bytes
//	workload.build  a workload generator (cache miss)        count: stored entries
//	sparse.readmm   sparse.ReadMM of an inline body (miss)   count: stored entries
//	method.prepare  method.Prepare (prepared-cache miss)
//	workload.rhs    workload.RHSForSolutionInto / RandomRHSInto
//	method.solve    PreparedSystem.Solve / SolveBatch        count: iterations
//	sparse.anorm    the A-norm error the daemon reports
//	serve.encode    json.Marshal of serve.SolveResponse      count: response bytes
//
// The children never overlap, so each child's self time is its duration;
// the root's self time is the replay's own glue (cache lookups, keys).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/serve"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// layerSpans are the child span names in pipeline order.
var layerSpans = []string{
	"serve.decode", "workload.build", "sparse.readmm", "method.prepare",
	"workload.rhs", "method.solve", "sparse.anorm", "serve.encode",
}

// span is one traced interval. Spans of one request share Req; a layer
// span's Parent is its request's root span (ID 1), whose Parent is 0.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRec collects one request's spans; a nil recorder traces nothing.
type spanRec struct {
	req   uint64
	t0    time.Time
	spans []span
}

// add records a layer span from start to now.
func (r *spanRec) add(name string, start time.Time, count int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Req: r.req, ID: len(r.spans) + 2, Parent: 1, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(time.Since(r.t0)), Count: count,
	})
}

// lru is a small least-recently-used map standing in for the daemon's
// matrix and prepared-system caches, sized like them.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	order []string // least recently used first
	items map[string]V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, items: map[string]V{}}
}

func (c *lru[V]) get(k string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.items[k]
	if ok {
		c.touch(k)
	}
	return v, ok
}

func (c *lru[V]) put(k string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[k]; !ok && len(c.items) >= c.cap {
		delete(c.items, c.order[0])
		c.order = c.order[1:]
	}
	c.items[k] = v
	c.touch(k)
}

func (c *lru[V]) touch(k string) {
	for i, o := range c.order {
		if o == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, k)
}

// replayer runs requests through the in-process pipeline.
type replayer struct {
	matrices *lru[*sparse.CSR]
	prepared *lru[method.PreparedSystem]
	seed     maphash.Seed
}

func newReplayer(cacheSize int) *replayer {
	matrices, prepared := 16, 64 // the daemon's defaults
	if cacheSize > 0 {
		matrices, prepared = cacheSize, cacheSize
	}
	return &replayer{
		matrices: newLRU[*sparse.CSR](matrices),
		prepared: newLRU[method.PreparedSystem](prepared),
		seed:     maphash.MakeSeed(),
	}
}

// matrixKey identifies a built system; inline bodies key by content hash.
func (p *replayer) matrixKey(s serve.MatrixSpec) string {
	mm := s.MM
	s.MM = ""
	return fmt.Sprintf("%+v|%x", s, maphash.String(p.seed, mm))
}

// build materializes the generator kinds the workloads send, with the
// daemon's defaults for omitted fields.
func build(s serve.MatrixSpec) (*sparse.CSR, error) {
	nnz := s.NNZ
	if nnz <= 0 {
		nnz = 6
	}
	switch s.Kind {
	case "mm":
		return sparse.ReadMM(strings.NewReader(s.MM))
	case "laplacian2d":
		return workload.Laplacian2D(s.N, s.N), nil
	case "randomspd":
		dom := s.Dominance
		if dom <= 0 {
			dom = 1.5
		}
		return workload.RandomSPD(s.N, nnz, dom, s.Seed), nil
	case "socialgram":
		gram, _ := workload.SocialGram(workload.DefaultSocialGram(s.N, s.Seed))
		return gram, nil
	case "overdetermined":
		return workload.RandomOverdetermined(s.Rows, s.Cols, nnz, s.Seed), nil
	}
	return nil, fmt.Errorf("replay: matrix kind %q is not one the workloads send", s.Kind)
}

// solveStats are the solver counts of one request.
type solveStats struct {
	rhs, converged int
	sweeps         int
	iterations     uint64
	computedBytes  float64
	nnz            int
}

// serveOne runs one request through decode → build → prepare → rhs →
// solve → encode, tracing into rec when it is non-nil, and checks the
// answer like the closed-loop client does.
func (p *replayer) serveOne(ctx context.Context, rq request, rec *spanRec) (solveStats, error) {
	var st solveStats
	t := time.Now()
	var req serve.SolveRequest
	err := json.Unmarshal(rq.body, &req)
	rec.add("serve.decode", t, int64(len(rq.body)))
	if err != nil {
		return st, fmt.Errorf("decoding request: %w", err)
	}
	if req.Method == "" {
		req.Method = "asyrgs"
	}
	if req.Tol <= 0 {
		req.Tol = solveTol
	}
	m, err := method.Get(req.Method)
	if err != nil {
		return st, err
	}

	key := p.matrixKey(req.Matrix)
	a, ok := p.matrices.get(key)
	if !ok {
		t = time.Now()
		a, err = build(req.Matrix)
		name := "workload.build"
		if req.Matrix.Kind == "mm" {
			name = "sparse.readmm"
		}
		var nnz int64
		if a != nil {
			nnz = int64(a.NNZ())
		}
		rec.add(name, t, nnz)
		if err != nil {
			return st, fmt.Errorf("building matrix: %w", err)
		}
		p.matrices.put(key, a)
	}

	opts := method.Opts{
		Tol: req.Tol, MaxSweeps: req.MaxSweeps, Workers: req.Workers,
		Beta: req.Beta, Seed: req.Seed, Inner: req.Inner,
		CheckEvery: req.CheckEvery, QueueCap: req.QueueCap, Chunk: req.Chunk,
		Precision: req.Precision,
	}
	prepKey := key + "|" + req.Method
	if pk, ok := m.(method.PrepKeyer); ok {
		prepKey += "|" + pk.PrepKey(opts)
	}
	ps, ok := p.prepared.get(prepKey)
	if !ok {
		t = time.Now()
		ps, err = method.Prepare(ctx, m, a, opts)
		rec.add("method.prepare", t, 0)
		if err != nil {
			return st, fmt.Errorf("preparing system: %w", err)
		}
		p.prepared.put(prepKey, ps)
	}

	var results []method.Result
	var b, x, xstar []float64
	if len(req.Bs) > 0 {
		xs := make([][]float64, len(req.Bs))
		for i := range xs {
			xs[i] = make([]float64, a.Cols)
		}
		t = time.Now()
		results, err = ps.SolveBatch(ctx, req.Bs, xs, opts)
		rec.add("method.solve", t, iterations(results))
	} else {
		b = req.B
		if len(b) == 0 {
			b = make([]float64, a.Rows)
			t = time.Now()
			if m.Kind() == method.SPD {
				xstar = make([]float64, a.Cols)
				workload.RHSForSolutionInto(a, req.RHSSeed, b, xstar)
			} else {
				workload.RandomRHSInto(req.RHSSeed, b)
			}
			rec.add("workload.rhs", t, 0)
		}
		x = make([]float64, a.Cols)
		t = time.Now()
		var res method.Result
		res, err = ps.Solve(ctx, b, x, opts)
		results = []method.Result{res}
		rec.add("method.solve", t, int64(res.Iterations))
	}
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		return st, fmt.Errorf("solving: %w", err)
	}

	st.nnz = a.NNZ()
	perSweep := float64(24*a.NNZ() + 16*a.Rows)
	for _, r := range results {
		st.rhs++
		if r.Converged {
			st.converged++
		}
		st.sweeps += r.Sweeps
		st.iterations += r.Iterations
		st.computedBytes += float64(r.Sweeps) * perSweep
	}

	res := results[0]
	resp := serve.SolveResponse{
		Method: res.Method, Kind: m.Kind().String(), MatrixKey: key,
		Rows: a.Rows, Cols: a.Cols, BatchSize: len(results),
		Residual: res.Residual, Converged: res.Converged, Sweeps: res.Sweeps,
		Iterations: res.Iterations, WallMS: float64(res.Wall) / float64(time.Millisecond),
	}
	if xstar != nil && a.Rows == a.Cols {
		t = time.Now()
		if nx := a.ANorm(xstar); nx > 0 {
			d := make([]float64, len(xstar))
			for i := range d {
				d[i] = x[i] - xstar[i]
			}
			v := a.ANorm(d) / nx
			resp.ANormErr = &v
		}
		rec.add("sparse.anorm", t, 0)
	}
	if len(req.Bs) > 0 {
		for _, r := range results {
			resp.Batch = append(resp.Batch, serve.BatchEntry{Residual: r.Residual, Converged: r.Converged, Sweeps: r.Sweeps})
			resp.Residual = max(resp.Residual, r.Residual)
			resp.Converged = resp.Converged && r.Converged
		}
	} else if req.IncludeSolution {
		resp.X = x
	}
	t = time.Now()
	out, err := json.Marshal(resp)
	rec.add("serve.encode", t, int64(len(out)))
	if err != nil {
		return st, fmt.Errorf("encoding response: %w", err)
	}
	return st, checkResponse(rq, &resp)
}

func iterations(rs []method.Result) int64 {
	var n uint64
	for _, r := range rs {
		n += r.Iterations
	}
	return int64(n)
}

// traceResult is what the traced replay measured over its timed window.
type traceResult struct {
	spans             []span
	requests          int // completed timed requests, all traced
	attempted, failed int
	firstErr          error
	solve             solveStats // summed over the completed requests
	// allocBytes counts heap allocation in the window, less what the
	// replay's own request generation allocated.
	allocBytes uint64
	gcCycles   uint32
	// overheadMS is the cost of tracing one request: its span count times
	// the measured cost of recording a span over not recording one.
	overheadMS float64
}

func (s *solveStats) addTo(dst *solveStats) {
	dst.rhs += s.rhs
	dst.converged += s.converged
	dst.sweeps += s.sweeps
	dst.iterations += s.iterations
	dst.computedBytes += s.computedBytes
	dst.nnz += s.nnz
}

// heapAllocs returns the bytes allocated by the process so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replay warms the in-process caches with the workload's warm-up requests,
// then replays each client's stream for dur, traced, from as many
// goroutines as the workload has clients.
func replay(ctx context.Context, wl traffic, seed uint64, dur time.Duration) (traceResult, error) {
	p := newReplayer(wl.cacheSize)
	gens := make([]func() request, wl.clients)
	for c := range gens {
		gens[c] = wl.stream(seed, c)
	}
	for c := range gens {
		for i := 0; i < wl.warmup; i++ {
			if _, err := p.serveOne(ctx, gens[c](), nil); err != nil {
				return traceResult{}, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}

	type clientTrace struct {
		traceResult
		genAlloc uint64
	}
	results := make([]clientTrace, wl.clients)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ct := &results[c]
			for i := 0; time.Since(t0) < dur && ctx.Err() == nil; i++ {
				a := heapAllocs()
				rq := gens[c]()
				ct.genAlloc += heapAllocs() - a
				rec := &spanRec{req: uint64(c)<<32 | uint64(i), t0: t0}
				start := time.Now()
				st, err := p.serveOne(ctx, rq, rec)
				end := time.Now()
				ct.attempted++
				if err != nil {
					ct.failed++
					if ct.firstErr == nil {
						ct.firstErr = err
					}
					continue
				}
				ct.requests++
				ct.spans = append(ct.spans, span{Req: rec.req, ID: 1, Name: "request",
					Start: int64(start.Sub(t0)), End: int64(end.Sub(t0))})
				ct.spans = append(ct.spans, rec.spans...)
				st.addTo(&ct.solve)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)

	var out traceResult
	var genAlloc uint64
	for _, ct := range results {
		out.spans = append(out.spans, ct.spans...)
		out.requests += ct.requests
		out.attempted += ct.attempted
		out.failed += ct.failed
		if out.firstErr == nil {
			out.firstErr = ct.firstErr
		}
		ct.solve.addTo(&out.solve)
		genAlloc += ct.genAlloc
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > genAlloc {
		out.allocBytes = alloc - genAlloc
	}
	out.gcCycles = m1.NumGC - m0.NumGC
	if out.requests > 0 {
		perSpan := spanCost()
		out.overheadMS = ms(perSpan) * float64(len(out.spans)) / float64(out.requests)
	}
	return out, nil
}

// spanCost measures what recording one span costs over the untraced path,
// which calls the same recorder method on a nil recorder. Each simulated
// request gets a fresh recorder, as in the replay.
func spanCost() time.Duration {
	const requests, perRequest = 1 << 13, 8
	timeAdds := func(traced bool) time.Duration {
		start := time.Now()
		for i := 0; i < requests; i++ {
			var r *spanRec
			if traced {
				r = &spanRec{t0: start}
			}
			for k := 0; k < perRequest; k++ {
				r.add("method.solve", time.Now(), int64(k))
			}
		}
		return time.Since(start)
	}
	return max(timeAdds(true)-timeAdds(false), 0) / (requests * perRequest)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMeans returns, per layer span name, its total self time in
// milliseconds divided by the number of requests, plus the
// per-request means of the byte counts at the decode and encode
// boundaries.
func (tr traceResult) layerMeans() (selfMS map[string]float64, reqBytes, respBytes float64) {
	selfMS = make(map[string]float64, len(layerSpans))
	for _, name := range layerSpans {
		selfMS[name] = 0
	}
	if tr.requests == 0 {
		return selfMS, 0, 0
	}
	n := float64(tr.requests)
	for _, s := range tr.spans {
		switch s.Name {
		case "request":
			continue
		case "serve.decode":
			reqBytes += float64(s.Count) / n
		case "serve.encode":
			respBytes += float64(s.Count) / n
		}
		selfMS[s.Name] += ms(s.dur()) / n
	}
	return selfMS, reqBytes, respBytes
}

// writeSpans writes one span per line as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

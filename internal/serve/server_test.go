package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postSolve(t *testing.T, ts *httptest.Server, req SolveRequest) (SolveResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return out, resp
}

// postSolveErr is postSolve without t.Fatal: safe off the test
// goroutine; a nil response means the request never got out.
func postSolveErr(ts *httptest.Server, req SolveRequest) (SolveResponse, *http.Response) {
	var out SolveResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, nil
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&out)
	}
	return out, resp
}

// postSolveCtx posts a solve under the caller's context, so a test can
// model a client disconnecting mid-request.
func postSolveCtx(ctx context.Context, ts *httptest.Server, req SolveRequest) (SolveResponse, *http.Response) {
	var out SolveResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, nil
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
	if err != nil {
		return out, nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return out, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&out)
	}
	return out, resp
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthzAndMethods(t *testing.T) {
	ts := newTestServer(t, Config{})
	var health map[string]string
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	var methods []struct{ Name, Kind string }
	getJSON(t, ts, "/methods", &methods)
	seen := map[string]bool{}
	for _, m := range methods {
		seen[m.Name] = true
	}
	for _, want := range []string{"asyrgs", "cg", "fcg", "kaczmarz", "lsqcd"} {
		if !seen[want] {
			t.Fatalf("/methods missing %q: %v", want, methods)
		}
	}
}

func TestSolveGeneratorSpec(t *testing.T) {
	ts := newTestServer(t, Config{})
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "randomspd", N: 200, NNZ: 5, Seed: 4},
		Method: "asyrgs", Tol: 1e-6, MaxSweeps: 500, Workers: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Converged || out.Residual > 1e-6 {
		t.Fatalf("did not converge: %+v", out)
	}
	if out.CacheHit {
		t.Fatal("first request must be a cache miss")
	}
	if out.ANormErr == nil || *out.ANormErr > 1e-2 {
		t.Fatalf("generated-RHS solve must report the A-norm error: %+v", out)
	}

	// A repeated right-hand side against the same matrix skips setup.
	out2, _ := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "randomspd", N: 200, NNZ: 5, Seed: 4},
		Method: "cg", Tol: 1e-8, RHSSeed: 99,
	})
	if !out2.CacheHit {
		t.Fatal("second request for the same spec must hit the cache")
	}
	if out2.MatrixKey != out.MatrixKey {
		t.Fatalf("cache keys differ for identical specs: %q vs %q", out.MatrixKey, out2.MatrixKey)
	}
}

func TestSolveInlineMatrixMarket(t *testing.T) {
	ts := newTestServer(t, Config{})
	mm := `%%MatrixMarket matrix coordinate real general
3 3 5
1 1 4.0
2 2 4.0
3 3 4.0
1 2 1.0
2 1 1.0
`
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "mm", MM: mm},
		Method: "gs", Tol: 1e-8, B: []float64{1, 2, 3}, IncludeSolution: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Converged || len(out.X) != 3 {
		t.Fatalf("bad solve: %+v", out)
	}
	// Check the returned solution satisfies row 3: 4·x₃ = 3.
	if got := out.X[2]; got < 0.74 || got > 0.76 {
		t.Fatalf("x[2] = %v, want 0.75", got)
	}
}

func TestSolveLeastSquares(t *testing.T) {
	ts := newTestServer(t, Config{})
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "overdetermined", Rows: 80, Cols: 30, NNZ: 4, Seed: 2},
		Method: "lsqcd", Tol: 1e-8, MaxSweeps: 20000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Kind != "least-squares" || !out.Converged {
		t.Fatalf("bad least-squares solve: %+v", out)
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []SolveRequest{
		{Matrix: MatrixSpec{Kind: "nope", N: 10}, Method: "cg"},
		{Matrix: MatrixSpec{Kind: "laplacian2d", N: 4}, Method: "no-such-method"},
		{Matrix: MatrixSpec{Kind: "laplacian2d", N: 4}, Method: "cg", B: []float64{1, 2}},
		{Matrix: MatrixSpec{Kind: "overdetermined", Rows: 40, Cols: 10, Seed: 1}, Method: "cg"},
		{Matrix: MatrixSpec{Kind: "mm", MM: "not a matrix"}, Method: "cg"},
	}
	for i, req := range cases {
		_, resp := postSolve(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Unknown JSON fields are rejected too (catches client typos).
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"matrix":{"kind":"laplacian2d","n":4},"metod":"cg"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestHugeChunkIsClamped sends a claiming chunk far beyond the solve's
// budget. The claim clamps it to the claimed range, so the async workers
// size their direction buffers from the range, not from the request, and
// the solve converges instead of panicking in a worker goroutine.
func TestHugeChunkIsClamped(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, m := range []string{"asyrgs", "asyrgs-partitioned"} {
		out, resp := postSolve(t, ts, SolveRequest{
			Matrix: MatrixSpec{Kind: "randomspd", N: 200, NNZ: 5, Seed: 1},
			Method: m, Workers: 2, Chunk: 1 << 62,
		})
		if resp.StatusCode != http.StatusOK || !out.Converged {
			t.Fatalf("%s: status %d, %+v", m, resp.StatusCode, out)
		}
	}
	var health map[string]string
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz after huge-chunk solves: %v", health)
	}
}

// TestHugeWorkersRejected: a worker count above maxWorkers is a 400 that
// names the limit, answered before the matrix is built. Admitted, an
// asynchronous solve would start that many goroutines for every chunk
// before polling its deadline again, holding its admission slot long
// past SolveTimeout.
func TestHugeWorkersRejected(t *testing.T) {
	ts := newTestServer(t, Config{SolveTimeout: 100 * time.Millisecond})
	body, _ := json.Marshal(SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 8},
		Method: "asyrgs", FixedWork: true, MaxSweeps: 1, Workers: 1 << 20,
	})
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), fmt.Sprint(maxWorkers)) {
		t.Fatalf("workers 1<<20: status %d, body %q; want 400 naming the limit %d", resp.StatusCode, raw, maxWorkers)
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Cache.Misses != 0 {
		t.Fatalf("rejected request built a matrix: %d cache misses", st.Cache.Misses)
	}
	var health map[string]string
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz after a huge-workers request: %v", health)
	}
}

// TestConcurrentSolves hammers the daemon with overlapping requests for a
// small set of matrices — run under -race this exercises the admission
// gate, the cache's shared-build path, and the stats counters.
func TestConcurrentSolves(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 4, CacheSize: 4})
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := MatrixSpec{Kind: "randomspd", N: 120, NNZ: 5, Seed: uint64(i % 3)}
			methodName := []string{"asyrgs", "cg", "rgs", "gs"}[i%4]
			body, _ := json.Marshal(SolveRequest{
				Matrix: spec, Method: methodName, Tol: 1e-6, MaxSweeps: 500,
				Workers: 2, RHSSeed: uint64(i),
			})
			resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			var out SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if !out.Converged {
				errs <- fmt.Errorf("client %d: did not converge: %+v", i, out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var stats Stats
	getJSON(t, ts, "/stats", &stats)
	if stats.Solved != clients {
		t.Fatalf("stats.Solved = %d, want %d", stats.Solved, clients)
	}
	if stats.Cache.Misses != 3 {
		t.Fatalf("3 distinct specs should build exactly 3 matrices, got %d misses (hits %d)",
			stats.Cache.Misses, stats.Cache.Hits)
	}
	if stats.Cache.Hits != clients-3 {
		t.Fatalf("cache hits = %d, want %d", stats.Cache.Hits, clients-3)
	}
	if stats.InFlight != 0 {
		t.Fatalf("in-flight count leaked: %d", stats.InFlight)
	}
	total := uint64(0)
	for _, c := range stats.PerMethod {
		total += c
	}
	if total != clients {
		t.Fatalf("per-method counts sum to %d, want %d", total, clients)
	}
}

// TestAdmissionGateRejects verifies the worker-pool gate sheds load with
// 503 instead of queueing without bound.
func TestAdmissionGateRejects(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, QueueTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot directly.
	srv.gate <- struct{}{}
	defer func() { <-srv.gate }()

	body, _ := json.Marshal(SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 4}, Method: "cg", Tol: 1e-6,
	})
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	// The 503 must hint a backoff: Retry-After derived from the queue
	// timeout, rounded up to a whole second (30ms → "1").
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var stats Stats
	getJSON(t, ts, "/stats", &stats)
	if stats.Rejected != 1 {
		t.Fatalf("stats.Rejected = %d, want 1", stats.Rejected)
	}
}

func TestSolveTimeoutReturns504(t *testing.T) {
	ts := newTestServer(t, Config{SolveTimeout: 25 * time.Millisecond})
	_, resp := postSolve(t, ts, SolveRequest{
		// An unreachable tolerance with an enormous budget: only the
		// per-request timeout can end this solve.
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 24, Seed: 1},
		Method: "asyrgs", Tol: 1e-300, MaxSweeps: 1 << 30, Workers: 2,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestClientCancelShedsWithoutError: clients that abandon a running solve
// are shed with 503 and counted as rejected, never as errors, while the
// normal solves interleaved with them are all served. Requests go
// straight into Handler().ServeHTTP: over a socket a cancel can fire
// before the server sees the request, and the request count would no
// longer be exact.
func TestClientCancelShedsWithoutError(t *testing.T) {
	h := New(Config{MaxConcurrent: 4, SolveTimeout: 30 * time.Second}).Handler()
	serveSolve := func(ctx context.Context, req SolveRequest) int {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)).WithContext(ctx))
		return rec.Code
	}
	spec := MatrixSpec{Kind: "laplacian2d", N: 16}
	normal := SolveRequest{Matrix: spec, Method: "asyrgs", Tol: 1e-6, MaxSweeps: 5000, Workers: 2}
	if code := serveSolve(context.Background(), normal); code != http.StatusOK {
		t.Fatalf("warm-up solve: status %d", code)
	}

	const clients = 4
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients*rounds)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := uint64(c*rounds + i + 1)
				req := normal
				req.RHSSeed = id
				if code := serveSolve(context.Background(), req); code != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: normal solve status %d, want 200", c, i, code)
				}
				// Only the client's cancellation ends this solve; a plain
				// cancel, not a deadline, is what a dropped connection
				// looks like.
				req.Tol, req.MaxSweeps = 1e-300, 1<<30
				ctx, cancel := context.WithCancel(context.Background())
				abandon := time.AfterFunc(time.Duration(2+id%8)*time.Millisecond, cancel)
				code := serveSolve(ctx, req)
				abandon.Stop()
				cancel()
				if code != http.StatusServiceUnavailable {
					errs <- fmt.Errorf("client %d round %d: abandoned solve status %d, want 503", c, i, code)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st Stats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	abandoned := uint64(clients * rounds)
	if st.Errors != 0 || st.InFlight != 0 {
		t.Fatalf("errors %d, in_flight %d; want 0 and 0", st.Errors, st.InFlight)
	}
	if st.Rejected != abandoned {
		t.Fatalf("rejected %d, want the %d abandoned solves", st.Rejected, abandoned)
	}
	if issued := 1 + 2*abandoned; st.Requests != issued {
		t.Fatalf("requests %d, want all %d issued", st.Requests, issued)
	}
}

// TestOversizedGeneratorSpecRejected: the dimension guard must bound the
// grid generators' *resulting* unknown count, not the grid side — and do
// it before allocation, with a 400.
func TestOversizedGeneratorSpecRejected(t *testing.T) {
	ts := newTestServer(t, Config{MaxDim: 1100})
	// 34² = 1156 > 1100: over the limit even though the side is tiny.
	_, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 34}, Method: "cg", Tol: 1e-6,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("laplacian2d 34² unknowns: status %d, want 400", resp.StatusCode)
	}
	// 11³ = 1331 > 1100.
	_, resp = postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian3d", N: 11}, Method: "cg", Tol: 1e-6,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("laplacian3d 11³ unknowns: status %d, want 400", resp.StatusCode)
	}
	// 33² = 1089 ≤ 1100: just under the limit must still work.
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 33}, Method: "cg", Tol: 1e-6, MaxSweeps: 2000,
	})
	if resp.StatusCode != http.StatusOK || !out.Converged {
		t.Fatalf("laplacian2d 33² unknowns: status %d, out %+v", resp.StatusCode, out)
	}

	// A side so large n³ overflows int64 must saturate, not wrap into an
	// "acceptable" dimension.
	ts2 := newTestServer(t, Config{})
	_, resp = postSolve(t, ts2, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian3d", N: 3_000_000}, Method: "cg", Tol: 1e-6,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing laplacian3d spec: status %d, want 400", resp.StatusCode)
	}
}

// TestMatrixSpecKeyCanonicalization: a spec relying on generator
// defaults and the same spec with the defaults spelled out must share
// one cache entry — the key is computed over the canonical spec, not
// the raw wire form.
func TestMatrixSpecKeyCanonicalization(t *testing.T) {
	ts := newTestServer(t, Config{})
	out, resp := postSolve(t, ts, SolveRequest{
		// NNZ and Dominance left zero: build defaults them to 6 and 1.5.
		Matrix: MatrixSpec{Kind: "randomspd", N: 100, Seed: 3},
		Method: "cg", Tol: 1e-6, MaxSweeps: 500,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out2, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "randomspd", N: 100, NNZ: 6, Dominance: 1.5, Seed: 3},
		Method: "cg", Tol: 1e-6, MaxSweeps: 500, RHSSeed: 9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out2.MatrixKey != out.MatrixKey {
		t.Fatalf("defaulted and explicit specs got different keys: %q vs %q", out.MatrixKey, out2.MatrixKey)
	}
	if !out2.CacheHit || !out2.PrepHit {
		t.Fatalf("explicit-defaults request must hit both caches: %+v", out2)
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Cache.Misses != 1 {
		t.Fatalf("one matrix, one miss: got %d misses", st.Cache.Misses)
	}
}

// slowPrepMethod wraps a real method with a Prepare that takes long
// enough to cancel a leader under — the regression rig for the shared
// prep-build poisoning bug.
type slowPrepMethod struct {
	inner   method.Method
	started chan struct{}
	delay   time.Duration
}

func (m *slowPrepMethod) Name() string      { return "slowprep-test" }
func (m *slowPrepMethod) Kind() method.Kind { return m.inner.Kind() }

func (m *slowPrepMethod) Solve(ctx context.Context, a *sparse.CSR, b, x []float64, opts method.Opts) (method.Result, error) {
	return m.inner.Solve(ctx, a, b, x, opts)
}

func (m *slowPrepMethod) Prepare(ctx context.Context, a *sparse.CSR, opts method.Opts) (method.PreparedSystem, error) {
	select {
	case m.started <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(m.delay):
	}
	return method.Prepare(ctx, m.inner, a, opts)
}

var (
	slowPrep     *slowPrepMethod
	slowPrepOnce sync.Once
)

// registerSlowPrep installs the test method once per process (Register
// panics on duplicates, and -count>1 reruns tests in one binary).
func registerSlowPrep(t *testing.T) *slowPrepMethod {
	t.Helper()
	slowPrepOnce.Do(func() {
		inner, err := method.Get("cg")
		if err != nil {
			t.Fatal(err)
		}
		slowPrep = &slowPrepMethod{inner: inner, started: make(chan struct{}, 8), delay: 250 * time.Millisecond}
		method.Register(slowPrep)
	})
	return slowPrep
}

// TestPrepareSurvivesLeaderCancel: the leader of a shared prep build
// disconnects mid-Prepare; the follower waiting on the same once-latch
// must still be served. Before the fix, Prepare ran under the leader's
// request context, so the leader's cancellation failed every waiter
// with context.Canceled.
func TestPrepareSurvivesLeaderCancel(t *testing.T) {
	sp := registerSlowPrep(t)
	for len(sp.started) > 0 { // drain any earlier run's signals
		<-sp.started
	}
	ts := newTestServer(t, Config{})

	req := SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 8},
		Method: "slowprep-test", Tol: 1e-6, MaxSweeps: 2000,
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		postSolveCtx(leaderCtx, ts, req)
	}()

	// Wait until the leader is inside Prepare, then race a follower in
	// and cut the leader's connection.
	select {
	case <-sp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached Prepare")
	}
	followerDone := make(chan struct{})
	var out SolveResponse
	var code int
	go func() {
		defer close(followerDone)
		var resp *http.Response
		out, resp = postSolveErr(ts, req)
		if resp != nil {
			code = resp.StatusCode
		}
	}()
	time.Sleep(30 * time.Millisecond) // let the follower join the latch
	cancelLeader()
	<-leaderDone

	select {
	case <-followerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never completed")
	}
	if code != http.StatusOK {
		t.Fatalf("follower status %d, want 200 — leader cancellation poisoned the shared prep build", code)
	}
	if !out.Converged {
		t.Fatalf("follower did not converge: %+v", out)
	}

	// The prepared system must also have landed in the cache: a fresh
	// request hits it.
	out3, resp := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK || !out3.PrepHit {
		t.Fatalf("post-cancel request should hit the prep cache: status %d, %+v", resp.StatusCode, out3)
	}
}

// TestStatsStagesBlock: every stage appears in /stats with sane counts,
// the stage totals are consistent with the /solve endpoint total, and
// /metrics exposes the stage histograms.
func TestStatsStagesBlock(t *testing.T) {
	ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		out, resp := postSolve(t, ts, SolveRequest{
			Matrix: MatrixSpec{Kind: "randomspd", N: 100, NNZ: 5, Seed: 2},
			Method: "cg", Tol: 1e-6, MaxSweeps: 500, RHSSeed: uint64(i),
		})
		if resp.StatusCode != http.StatusOK || !out.Converged {
			t.Fatalf("request %d: status %d, %+v", i, resp.StatusCode, out)
		}
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	for _, stage := range stageNames {
		sum, ok := st.Stages[stage]
		if !ok {
			t.Fatalf("stage %q missing from /stats stages block: %+v", stage, st.Stages)
		}
		if sum.Count != 3 {
			t.Fatalf("stage %q observed %d times, want 3", stage, sum.Count)
		}
	}
	// The stages are disjoint slices of the /solve handler. Their total
	// may not exceed the endpoint total, give or take 5% plus 5µs per
	// request: each stage clock truncates to whole microseconds on its
	// own. And it must be a real share of it (at least 25%), or the
	// stage clocks are not wired to the work.
	endpoint := st.Latency["/solve"]
	endpointUS := endpoint.MeanUS * float64(endpoint.Count)
	var stagesUS float64
	for _, stage := range stageNames {
		stagesUS += st.Stages[stage].MeanUS * float64(st.Stages[stage].Count)
	}
	if slackUS := 0.05*endpointUS + 5*float64(endpoint.Count); stagesUS > endpointUS+slackUS {
		t.Fatalf("stage total %.0fµs exceeds the /solve total %.0fµs (+%.0fµs slack)", stagesUS, endpointUS, slackUS)
	}
	if stagesUS < 0.25*endpointUS {
		t.Fatalf("stages account for only %.0fµs of the /solve total %.0fµs", stagesUS, endpointUS)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, stage := range stageNames {
		if !strings.Contains(body, `asyrgsd_stage_duration_seconds_count{stage="`+stage+`"}`) {
			t.Fatalf("/metrics missing stage %q histogram", stage)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestAdaptiveDeadline pins the batching policy: when a leader waits,
// for how long, as a pure function of rate history and gate contention.
func TestAdaptiveDeadline(t *testing.T) {
	const window = 100 * time.Millisecond
	cases := []struct {
		name   string
		gapNS  float64
		window time.Duration
		target int
		busy   bool
		want   time.Duration
	}{
		{"disabled window", 1e3, 0, 4, true, 0},
		{"idle server runs immediately", 1e3, window, 4, false, 0},
		{"no history pays the window once", -1, window, 4, true, window},
		{"sparse arrivals skip the wait", float64(2 * window), window, 4, true, 0},
		{"fast arrivals wait a few gaps", float64(time.Millisecond), window, 4, true, 3 * time.Millisecond},
		{"wait clamps to the window", float64(90 * time.Millisecond), window, 8, true, window},
	}
	for _, c := range cases {
		if got := adaptiveDeadline(c.gapNS, c.window, c.target, c.busy); got != c.want {
			t.Errorf("%s: adaptiveDeadline(%g, %v, %d, %v) = %v, want %v",
				c.name, c.gapNS, c.window, c.target, c.busy, got, c.want)
		}
	}
}

// TestIdleRequestSkipsBatchWindow: a single request on an otherwise-idle
// server must not pay the coalescing window — the old coalescer slept
// the full fixed window whenever any gate slot was in use, and even the
// adaptive one must see an idle gate as "run now".
func TestIdleRequestSkipsBatchWindow(t *testing.T) {
	const window = 300 * time.Millisecond
	ts := newTestServer(t, Config{BatchWindow: window})
	start := time.Now()
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 8},
		Method: "cg", Tol: 1e-6, MaxSweeps: 500,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || !out.Converged {
		t.Fatalf("status %d, out %+v", resp.StatusCode, out)
	}
	if elapsed >= window/2 {
		t.Fatalf("idle request took %v — it paid the %v batch window", elapsed, window)
	}
}

// TestBatchFlushOnWidthTarget: with a deliberately enormous window, a
// batch reaching its width target must flush immediately — the size
// half of size-or-deadline.
func TestBatchFlushOnWidthTarget(t *testing.T) {
	const clients = 3
	srv := New(Config{MaxConcurrent: 2, BatchWindow: 10 * time.Second, BatchTarget: clients})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy one gate slot so the leader sees contention and would wait
	// out its (10s) deadline if the width trigger were broken.
	srv.gate <- struct{}{}
	defer func() { <-srv.gate }()

	var wg sync.WaitGroup
	outs := make([]SolveResponse, clients)
	codes := make([]int, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], codes[i] = postSolveCode(t, ts, SolveRequest{
				Matrix: MatrixSpec{Kind: "randomspd", N: 120, NNZ: 5, Seed: 1},
				Method: "asyrgs", Tol: 1e-6, MaxSweeps: 2000, Workers: 2,
				RHSSeed: uint64(i),
			})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed >= 5*time.Second {
		t.Fatalf("batch took %v — the width target did not flush it before the 10s window", elapsed)
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if outs[i].BatchSize != clients {
			t.Fatalf("client %d: batch size %d, want %d (all: %+v)", i, outs[i].BatchSize, clients, outs)
		}
	}
}

// postSolveCode is postSolve for concurrent use: it reports failures via
// the returned status code instead of t.Fatal (which must not be called
// off the test goroutine).
func postSolveCode(t *testing.T, ts *httptest.Server, req SolveRequest) (SolveResponse, int) {
	t.Helper()
	out, resp := postSolveErr(ts, req)
	if resp == nil {
		return out, 0
	}
	return out, resp.StatusCode
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

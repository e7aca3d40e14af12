package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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
	h := New(Config{MaxConcurrent: 4, BatchWindow: 5 * time.Millisecond, SolveTimeout: 30 * time.Second}).Handler()
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
				// Only the client's cancellation ends this solve. The
				// distinct seed keeps it out of shared batches, which
				// ignore one member's cancellation; a plain cancel, not a
				// deadline, is what a dropped connection looks like.
				req.Tol, req.MaxSweeps, req.Seed = 1e-300, 1<<30, id
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

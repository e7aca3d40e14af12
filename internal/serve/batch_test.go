package serve

import (
	"math"
	"net/http"
	"sync"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// TestFixedWorkRequest: fixed_work runs the exact sweep budget with no
// convergence target — the mode that was unreachable over HTTP while
// handleSolve silently rewrote Tol <= 0 to 1e-6.
func TestFixedWorkRequest(t *testing.T) {
	ts := newTestServer(t, Config{})
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix:    MatrixSpec{Kind: "laplacian2d", N: 8},
		Method:    "asyrgs",
		FixedWork: true, MaxSweeps: 7, Workers: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Sweeps != 7 {
		t.Fatalf("fixed-work run must spend the whole budget: %+v", out)
	}
	if out.Converged {
		t.Fatalf("fixed-work runs never report convergence: %+v", out)
	}
}

// TestExplicitBatchRequest: the "bs" field solves several right-hand
// sides together against one prepared system.
func TestExplicitBatchRequest(t *testing.T) {
	ts := newTestServer(t, Config{})
	n := 8 * 8
	bs := make([][]float64, 3)
	for j := range bs {
		bs[j] = make([]float64, n)
		bs[j][j] = 1
	}
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 8},
		Method: "asyrgs", Tol: 1e-8, MaxSweeps: 5000, Workers: 2,
		Bs: bs, IncludeSolution: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Batch) != 3 || out.BatchSize != 3 {
		t.Fatalf("batch response malformed: batch=%d size=%d", len(out.Batch), out.BatchSize)
	}
	if !out.Converged {
		t.Fatalf("batch did not converge: %+v", out)
	}
	for j, e := range out.Batch {
		if !e.Converged || e.Residual > 1e-8 || len(e.X) != n {
			t.Fatalf("batch entry %d: %+v", j, e)
		}
	}
	// One request, one batch, and every explicit column counts as a
	// coalesced item: benchmark/'s serve.coalesced_share reads this unit.
	var stats Stats
	getJSON(t, ts, "/stats", &stats)
	if stats.Requests != 1 || stats.Batches != 1 || stats.CoalescedRequests != 3 {
		t.Fatalf("requests %d, batches %d, coalesced_requests %d; want 1, 1, 3",
			stats.Requests, stats.Batches, stats.CoalescedRequests)
	}
	// b and bs together must be rejected.
	_, resp = postSolve(t, ts, SolveRequest{
		Matrix: MatrixSpec{Kind: "laplacian2d", N: 8},
		B:      make([]float64, n), Bs: bs,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("b+bs: status %d, want 400", resp.StatusCode)
	}
}

// TestPrepCacheReuse: a second request for the same (matrix, method,
// prep-opts) hits the prepared-system cache and performs zero additional
// preparations — the serving-path statement of the pipeline's guarantee.
func TestPrepCacheReuse(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := SolveRequest{
		Matrix: MatrixSpec{Kind: "randomspd", N: 150, NNZ: 5, Seed: 8},
		Method: "kaczmarz", Tol: 1e-6, MaxSweeps: 5000, Workers: 2,
	}
	out, resp := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.PrepHit {
		t.Fatal("first request cannot hit the prep cache")
	}

	before := kaczmarz.PrepCount() + core.PrepCount() + lsq.PrepCount() + sparse.GramCount()
	req.RHSSeed = 42
	out2, resp := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out2.PrepHit || !out2.CacheHit {
		t.Fatalf("second request must hit both caches: %+v", out2)
	}
	if after := kaczmarz.PrepCount() + core.PrepCount() + lsq.PrepCount() + sparse.GramCount(); after != before {
		t.Fatalf("warm request re-prepared state: %d preparations", after-before)
	}

	var stats Stats
	getJSON(t, ts, "/stats", &stats)
	if stats.PrepCache.Hits < 1 || stats.PrepCache.Misses < 1 {
		t.Fatalf("prep cache counters not reported: %+v", stats.PrepCache)
	}
}

// TestConcurrentRequestsSolvedIndependently: concurrent requests for one
// system with identical solver knobs each run their own solve behind the
// admission gate. Every response reports batch size 1 and the residual,
// sweeps and iterations of the same request served alone, bit for bit,
// and /stats counts one batch per request with nothing coalesced. Run
// under -race this also exercises the gate and the item pool.
func TestConcurrentRequestsSolvedIndependently(t *testing.T) {
	const clients = 6
	request := func(i int) SolveRequest {
		return SolveRequest{
			Matrix: MatrixSpec{Kind: "randomspd", N: 150, NNZ: 5, Seed: 1},
			Method: "asyrgs", Tol: 1e-6, MaxSweeps: 2000, Workers: 1, Seed: 3,
			RHSSeed: uint64(i + 1),
		}
	}
	// One worker makes each solve a pure function of its request, so a
	// lone run on a fresh server is the reference.
	alone := newTestServer(t, Config{})
	want := make([]SolveResponse, clients)
	for i := range want {
		out, resp := postSolve(t, alone, request(i))
		if resp.StatusCode != http.StatusOK || !out.Converged {
			t.Fatalf("request %d alone: status %d, %+v", i, resp.StatusCode, out)
		}
		want[i] = out
	}

	ts := newTestServer(t, Config{MaxConcurrent: 2})
	got := make([]SolveResponse, clients)
	codes := make([]int, clients)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			out, resp := postSolveErr(ts, request(i))
			if resp != nil {
				got[i], codes[i] = out, resp.StatusCode
			}
		}(i)
	}
	close(release)
	wg.Wait()

	for i, g := range got {
		w := want[i]
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if g.BatchSize != 1 {
			t.Fatalf("request %d: batch_size %d, want 1", i, g.BatchSize)
		}
		if math.Float64bits(g.Residual) != math.Float64bits(w.Residual) || g.Sweeps != w.Sweeps || g.Iterations != w.Iterations {
			t.Fatalf("request %d: residual %v, %d sweeps, %d iterations; alone %v, %d, %d",
				i, g.Residual, g.Sweeps, g.Iterations, w.Residual, w.Sweeps, w.Iterations)
		}
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Requests != clients || st.Solved != clients || st.Batches != clients {
		t.Fatalf("requests %d, solved %d, batches %d; want %d each", st.Requests, st.Solved, st.Batches, clients)
	}
	if st.CoalescedRequests != 0 || st.InFlight != 0 {
		t.Fatalf("coalesced_requests %d, in_flight %d; want 0 and 0", st.CoalescedRequests, st.InFlight)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

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

// TestCoalescedBatchedServing: concurrent requests for one prepared
// system and identical solver knobs coalesce into fewer batched solves
// behind the admission gate. Run under -race this also exercises the
// batcher's synchronization.
func TestCoalescedBatchedServing(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 2, BatchWindow: 150 * time.Millisecond})
	const clients = 8
	var wg sync.WaitGroup
	sizes := make([]int, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SolveRequest{
				Matrix: MatrixSpec{Kind: "randomspd", N: 150, NNZ: 5, Seed: 1},
				Method: "asyrgs", Tol: 1e-6, MaxSweeps: 2000, Workers: 2,
				RHSSeed: uint64(i),
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
				errs <- fmt.Errorf("client %d did not converge: %+v", i, out)
				return
			}
			sizes[i] = out.BatchSize
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var stats Stats
	getJSON(t, ts, "/stats", &stats)
	if stats.Solved != clients {
		t.Fatalf("solved %d, want %d", stats.Solved, clients)
	}
	if stats.Batches >= clients {
		t.Fatalf("no coalescing happened: %d batches for %d requests (batch sizes %v)",
			stats.Batches, clients, sizes)
	}
	if stats.Requests != clients || stats.InFlight != 0 {
		t.Fatalf("requests %d, in_flight %d; want %d and 0", stats.Requests, stats.InFlight, clients)
	}
	// Every request reports the size of the batch that served it, and
	// the server counts exactly the requests that report a shared one.
	coalesced := 0
	for _, s := range sizes {
		if s > 1 {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Fatalf("no request reports a shared batch: %v", sizes)
	}
	if stats.CoalescedRequests != uint64(coalesced) {
		t.Fatalf("coalesced_requests %d, but %d responses report a shared batch (sizes %v)",
			stats.CoalescedRequests, coalesced, sizes)
	}
}

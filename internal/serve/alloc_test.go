package serve

// Allocation regression tests for the pooled warm request path. The
// direct-handler solve path recycles solve items, iterate buffers and
// generated right-hand sides, so a warm request's garbage is O(1) in
// the matrix dimension: the remaining per-request allocations are the
// fixed HTTP/JSON machinery (request decode, response encode — the
// per-request context and timer were removed from the uncontended gate
// path). The tests pin both properties: the allocation count stays
// under a fixed budget, and the allocated bytes per warm request do not
// grow with the problem size.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
)

// discardWriter is a ResponseWriter that drops the body, so the
// measurement excludes recorder bookkeeping (JSON encoding itself still
// runs — it is part of the fixed per-request overhead).
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// warmRequest drives one /solve request through the handler and fails
// the test on a non-200.
func warmRequest(t testing.TB, h http.Handler, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("warm request failed with status %d", w.code)
	}
}

// solveBody builds a fixed-work single-RHS request against a generated
// SPD system of dimension n.
func solveBody(t testing.TB, n int) []byte {
	t.Helper()
	body, err := json.Marshal(SolveRequest{
		Matrix:    MatrixSpec{Kind: "randomspd", N: n, NNZ: 4, Seed: 3},
		Method:    "asyrgs",
		FixedWork: true, MaxSweeps: 1, CheckEvery: 1, Workers: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// measureWarm returns the average allocation count and byte volume per
// warm request at dimension n.
func measureWarm(t *testing.T, n, runs int) (allocs, bytesPer float64) {
	t.Helper()
	srv := New(Config{})
	h := srv.Handler()
	body := solveBody(t, n)
	warmRequest(t, h, body) // populate matrix + prep caches, warm the pools
	warmRequest(t, h, body)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		warmRequest(t, h, body)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestWarmRequestGarbageIndependentOfDimension(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	const runs = 60
	allocsSmall, bytesSmall := measureWarm(t, 64, runs)
	allocsBig, bytesBig := measureWarm(t, 1024, runs)
	t.Logf("n=64: %.1f allocs, %.0f B/request; n=1024: %.1f allocs, %.0f B/request",
		allocsSmall, bytesSmall, allocsBig, bytesBig)

	// Fixed per-request overhead (decode, encode, handler bookkeeping):
	// ~43 allocations today, with the pooled deadline context in place of
	// a per-solve context.WithTimeout. The budget leaves headroom without
	// letting more than a few stray per-request allocations regress
	// silently.
	if allocsBig > 62 {
		t.Fatalf("warm request made %.1f allocations, want the pooled fixed overhead (≤ 62)", allocsBig)
	}
	// The pooled path's byte volume must not scale with the dimension: a
	// 16× larger system used to cost three extra 8 KiB vectors per
	// request (iterate, generated RHS, known solution). With pooling both
	// sizes pay only the fixed machinery; allow 2× for noise where an
	// unpooled path shows >5×.
	if bytesBig > 2*bytesSmall+2048 {
		t.Fatalf("warm request bytes grew with dimension: %.0f B at n=64 vs %.0f B at n=1024", bytesSmall, bytesBig)
	}
}

// TestPooledItemsAreReused pins the mechanism itself: after a warm
// request completes, the next identical request must reuse the pooled
// iterate buffer rather than allocate a new one.
func TestPooledItemsAreReused(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	srv := New(Config{})
	it := srv.getItem()
	it.xBuf = sized(it.xBuf, 128)
	buf := &it.xBuf[0]
	srv.putItem(it)
	it2 := srv.getItem()
	if len(it2.xBuf) == 0 || &it2.xBuf[0] != buf {
		t.Fatal("recycled item did not retain its iterate buffer")
	}
}

// TestChunkKnobReachesSolver checks the serve-level plumbing of the
// claiming-granularity knob: an explicit chunk is accepted and the
// request still runs the exact budget (the direction sequence is
// chunk-invariant, so only accounting can tell the difference).
func TestChunkKnobReachesSolver(t *testing.T) {
	srv := New(Config{})
	for _, chunk := range []int{0, 1, 64} {
		body, _ := json.Marshal(SolveRequest{
			Matrix:    MatrixSpec{Kind: "randomspd", N: 96, NNZ: 4, Seed: 5},
			Method:    "asyrgs",
			FixedWork: true, MaxSweeps: 2, CheckEvery: 2, Workers: 2, Chunk: chunk,
		})
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("chunk=%d: status %d: %s", chunk, rec.Code, rec.Body.String())
		}
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := uint64(2 * 96); resp.Iterations != want {
			t.Fatalf("chunk=%d: %d iterations, want %d", chunk, resp.Iterations, want)
		}
	}
	// A negative chunk is rejected at solver construction, surfacing as a
	// client error rather than a crash.
	body, _ := json.Marshal(SolveRequest{
		Matrix: MatrixSpec{Kind: "randomspd", N: 32, NNZ: 4}, Method: "asyrgs", Chunk: -1,
	})
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative chunk: status %d, want 400", rec.Code)
	}
}

package serve

// Tests for the serving boundary: the precision field accepts only the
// float64 spellings, and /stats size bands route by matrix dimension.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrecisionKnobEndToEnd pins what the precision field still does on a
// solve: every method stores and iterates in float64, so the float64
// spellings converge and share one prepared system.
func TestPrecisionKnobEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	spec := MatrixSpec{Kind: "randomspd", N: 300, NNZ: 5, Seed: 4}
	var st0 Stats
	getJSON(t, ts, "/stats", &st0)
	for i, prec := range []string{"", "f64", "", "f64"} {
		out, resp := postSolve(t, ts, SolveRequest{
			Matrix: spec, Method: "asyrgs", Tol: 1e-6, MaxSweeps: 2000, Workers: 2,
			Precision: prec,
		})
		if resp.StatusCode != http.StatusOK || !out.Converged {
			t.Fatalf("precision %q: status %d, %+v", prec, resp.StatusCode, out)
		}
		if out.PrepHit != (i > 0) {
			t.Fatalf("request %d (precision %q): prep_hit %v", i, prec, out.PrepHit)
		}
	}
	var st1 Stats
	getJSON(t, ts, "/stats", &st1)
	if st1.PrepCache.Misses != st0.PrepCache.Misses+1 {
		t.Fatalf("\"\" and \"f64\" must share one prepared system: %d prep misses", st1.PrepCache.Misses-st0.PrepCache.Misses)
	}
}

// TestPrecisionKnobRejections pins the request-level precision check: any
// value other than the float64 spellings is a 400 that names f64,
// answered before the matrix is built.
func TestPrecisionKnobRejections(t *testing.T) {
	ts := newTestServer(t, Config{})
	spec := MatrixSpec{Kind: "randomspd", N: 300, NNZ: 5, Seed: 4}
	var st0 Stats
	getJSON(t, ts, "/stats", &st0)
	for _, prec := range []string{"f32", "float32", "double"} {
		body, _ := json.Marshal(SolveRequest{Matrix: spec, Method: "asyrgs", Precision: prec})
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "f64") {
			t.Fatalf("precision %q: status %d, body %q; want 400 naming f64", prec, resp.StatusCode, buf.String())
		}
	}
	var st1 Stats
	getJSON(t, ts, "/stats", &st1)
	if st1.Cache.Misses != st0.Cache.Misses {
		t.Fatalf("rejected requests built matrices: cache misses %d -> %d", st0.Cache.Misses, st1.Cache.Misses)
	}
}

// TestSizeBandRouting pins bandFor and the /stats surface: requests land
// in the band of their matrix dimension and nowhere else.
func TestSizeBandRouting(t *testing.T) {
	if got := bandFor(999); got != "lt1k" {
		t.Fatalf("bandFor(999) = %q", got)
	}
	if got := bandFor(1000); got != "1k-100k" {
		t.Fatalf("bandFor(1000) = %q", got)
	}
	if got := bandFor(100000); got != "1k-100k" {
		t.Fatalf("bandFor(100000) = %q", got)
	}
	if got := bandFor(100001); got != "gt100k" {
		t.Fatalf("bandFor(100001) = %q", got)
	}

	srv := New(Config{})
	h := srv.Handler()
	solveN := func(n, times int) {
		body, _ := json.Marshal(SolveRequest{
			Matrix: MatrixSpec{Kind: "randomspd", N: n, NNZ: 4, Seed: 3},
			Method: "asyrgs", FixedWork: true, MaxSweeps: 1, CheckEvery: 1, Workers: 1,
		})
		for i := 0; i < times; i++ {
			req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("n=%d: status %d: %s", n, rec.Code, rec.Body.String())
			}
		}
	}
	solveN(64, 3)
	solveN(1500, 2)

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SizeBands == nil {
		t.Fatal("/stats missing size_bands")
	}
	want := map[string]uint64{"lt1k": 3, "1k-100k": 2, "gt100k": 0}
	for band, n := range want {
		got, ok := st.SizeBands[band]
		if !ok {
			t.Fatalf("size band %q missing from /stats", band)
		}
		if got.Count != n {
			t.Fatalf("band %q holds %d observations, want %d", band, got.Count, n)
		}
	}

	// The same counts appear on /metrics as labelled histogram series.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	text := rec.Body.String()
	for _, line := range []string{
		`asyrgsd_sizeband_duration_seconds_count{band="lt1k"} 3`,
		`asyrgsd_sizeband_duration_seconds_count{band="1k-100k"} 2`,
		`asyrgsd_sizeband_duration_seconds_count{band="gt100k"} 0`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("/metrics missing %q:\n%s", line, text)
		}
	}
}

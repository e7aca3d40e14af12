package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/race"
)

// builtinMethods is the built-in roster, captured at package
// initialization, before any test registers a method of its own, so a
// fuzz input names the same method in every run.
var builtinMethods = method.Names()

// fuzzKinds are the generator kinds a fuzzed request draws from.
var fuzzKinds = []string{"laplacian2d", "laplacian3d", "randomspd", "socialgram", "overdetermined"}

// FuzzSolveRequest drives /solve with requests built from fuzzed fields:
// a registry method, a small generated system (some past the 512 limit),
// and every solver knob within the bounds the daemon's clients use.
// Whatever the request, the reply carries a status from answer's table
// and a JSON body, and a 200 reports finite numbers.
func FuzzSolveRequest(f *testing.F) {
	idx := func(name string) uint8 { return uint8(slices.Index(builtinMethods, name)) }
	kind := func(k string) uint8 { return uint8(slices.Index(fuzzKinds, k)) }
	// jacobi diverges on the social Gram matrix: within the default 1000
	// sweeps its residual is no longer finite, and the solve stops there.
	f.Add(idx("jacobi"), kind("socialgram"), uint16(300), uint16(0), uint64(1),
		uint8(0), uint16(0), uint8(0), 0.0, 0.0, int16(0), int16(0), uint8(0), false, false)
	// A step size outside (0, 2) for the sharded backend.
	f.Add(idx("asyrgs-distmem"), kind("laplacian2d"), uint16(4), uint16(0), uint64(0),
		uint8(0), uint16(0), uint8(0), 117.0, 0.0, int16(0), int16(0), uint8(0), false, false)
	f.Add(idx("lsqcd-async"), kind("overdetermined"), uint16(60), uint16(20), uint64(3),
		uint8(2), uint16(200), uint8(0), 0.5, 1e-8, int16(0), int16(64), uint8(0), false, true)
	f.Add(idx("fcg"), kind("randomspd"), uint16(200), uint16(5), uint64(4),
		uint8(4), uint16(50), uint8(3), 0.0, 1e-9, int16(2), int16(0), uint8(3), true, false)
	// A generated system past MaxDim, refused before it is built.
	f.Add(idx("asyrgs"), kind("socialgram"), uint16(599), uint16(0), uint64(2),
		uint8(2), uint16(0), uint8(0), 0.0, 0.0, int16(0), int16(0), uint8(0), false, false)
	// A grid side below the generator's minimum.
	f.Add(idx("cg"), kind("laplacian3d"), uint16(0), uint16(0), uint64(0),
		uint8(1), uint16(0), uint8(0), 0.0, 0.0, int16(0), int16(0), uint8(0), false, false)
	// A fixed-work asynchronous solve claiming one index at a time and
	// returning its iterate.
	f.Add(idx("asyrgs-partitioned"), kind("laplacian2d"), uint16(12), uint16(0), uint64(5),
		uint8(4), uint16(20), uint8(0), 0.0, 0.0, int16(3), int16(1), uint8(0), true, true)

	srv := New(Config{MaxDim: 512, SolveTimeout: 200 * time.Millisecond})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, mi, ki uint8, n, m uint16, seed uint64,
		workers uint8, maxSweeps uint16, inner uint8, beta, tol float64,
		checkEvery, chunk int16, queueCap uint8, fixedWork, includeSolution bool) {
		if math.IsNaN(beta) || math.IsInf(beta, 0) || math.IsNaN(tol) || math.IsInf(tol, 0) {
			return // JSON has no encoding for them, so no client can send them
		}
		spec := MatrixSpec{Kind: fuzzKinds[int(ki)%len(fuzzKinds)], Seed: seed}
		switch spec.Kind {
		case "laplacian2d":
			spec.N = int(n % 24)
		case "laplacian3d":
			spec.N = int(n % 9)
		case "randomspd":
			spec.N, spec.NNZ = int(n%600), int(m%12)
		case "socialgram":
			spec.N = int(n % 600)
		case "overdetermined":
			spec.Rows, spec.Cols = int(n%600), int(m%600)
		}
		req := SolveRequest{
			Matrix: spec, Method: builtinMethods[int(mi)%len(builtinMethods)],
			Workers: int(workers % 5), MaxSweeps: int(maxSweeps % 1001), Inner: int(inner % 5),
			Beta: beta, Tol: tol, CheckEvery: int(checkEvery), Chunk: int(chunk),
			QueueCap: int(queueCap), FixedWork: fixedWork, IncludeSolution: includeSolution,
		}
		if race.Enabled && req.Method == "asyrgs-nonatomic" {
			t.Skip("the NonAtomic ablation is deliberately racy")
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%s: status %d is not one answer gives", body, rec.Code)
		}
		if rec.Body.Len() == 0 || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: status %d with body %q, want JSON", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: decoding the 200 reply: %v", body, err)
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(resp.Residual) || (resp.ANormErr != nil && !finite(*resp.ANormErr)) {
			t.Fatalf("%s: 200 with residual %v, A-norm error %v", body, resp.Residual, resp.ANormErr)
		}
	})
}

package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// panicSolveMethod panics inside Solve — on the batch path, behind the
// admission gate.
type panicSolveMethod struct{}

func (panicSolveMethod) Name() string      { return "panic-solve" }
func (panicSolveMethod) Kind() method.Kind { return method.SPD }
func (panicSolveMethod) Solve(context.Context, *sparse.CSR, []float64, []float64, method.Opts) (method.Result, error) {
	panic("injected solver panic")
}

// panicPrepMethod panics inside Prepare — inside the prep cache's
// once-latched build closure, the poisoning hazard.
type panicPrepMethod struct{}

func (panicPrepMethod) Name() string      { return "panic-prepare" }
func (panicPrepMethod) Kind() method.Kind { return method.SPD }
func (panicPrepMethod) Solve(context.Context, *sparse.CSR, []float64, []float64, method.Opts) (method.Result, error) {
	panic("unreachable: prepare panics first")
}
func (panicPrepMethod) Prepare(context.Context, *sparse.CSR, method.Opts) (method.PreparedSystem, error) {
	panic("injected prepare panic")
}

var registerPanicMethodsOnce sync.Once

func registerPanicMethods() {
	registerPanicMethodsOnce.Do(func() {
		method.Register(panicSolveMethod{})
		method.Register(panicPrepMethod{})
	})
}

// TestPanicInSolveContained: a panicking solver answers 500, counts in
// panics, and leaves the daemon fully serviceable — including the
// admission slot the panicking batch held.
func TestPanicInSolveContained(t *testing.T) {
	registerPanicMethods()
	ts := newTestServer(t, Config{MaxConcurrent: 1})

	spec := MatrixSpec{Kind: "laplacian2d", N: 4}
	_, resp := postSolve(t, ts, SolveRequest{Matrix: spec, Method: "panic-solve", Tol: 1e-6})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, want 500", resp.StatusCode)
	}

	// The daemon survived and the single admission slot was released:
	// a normal solve on the same matrix must succeed.
	out, resp := postSolve(t, ts, SolveRequest{Matrix: spec, Method: "cg", Tol: 1e-8})
	if resp.StatusCode != http.StatusOK || !out.Converged {
		t.Fatalf("post-panic solve: status %d, %+v", resp.StatusCode, out)
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Panics != 1 {
		t.Fatalf("stats.Panics = %d, want 1", st.Panics)
	}
}

// TestPanicInPrepareContained: a panic inside the once-latched prep
// build must resolve the cache entry with an error (500), not wedge the
// key — a second request re-runs the build instead of hanging forever.
func TestPanicInPrepareContained(t *testing.T) {
	registerPanicMethods()
	ts := newTestServer(t, Config{})

	spec := MatrixSpec{Kind: "laplacian2d", N: 4}
	for i := 1; i <= 2; i++ {
		_, resp := postSolve(t, ts, SolveRequest{Matrix: spec, Method: "panic-prepare", Tol: 1e-6})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Panics != 2 {
		t.Fatalf("stats.Panics = %d, want 2 (one per rebuilt entry)", st.Panics)
	}
	// And the matrix itself is fine for healthy methods.
	out, resp := postSolve(t, ts, SolveRequest{Matrix: spec, Method: "cg", Tol: 1e-8})
	if resp.StatusCode != http.StatusOK || !out.Converged {
		t.Fatalf("healthy solve after prepare panics: status %d, %+v", resp.StatusCode, out)
	}
}

// TestMalformedMatrixIs400 sends specs whose builders used to panic: an
// uploaded entry outside the declared size, an index of 0, a negative or
// over-limit size, a rectangular symmetric body, and generator parameters
// the generators reject. Each is the client's error, so it must answer
// 400 without counting a contained panic.
func TestMalformedMatrixIs400(t *testing.T) {
	ts := newTestServer(t, Config{MaxDim: 1000})
	const hdr = "%%MatrixMarket matrix coordinate real general\n"
	cases := map[string]MatrixSpec{
		"index past size":      {Kind: "mm", MM: hdr + "2 2 1\n3 1 1\n"},
		"index 0":              {Kind: "mm", MM: hdr + "2 2 1\n0 1 1\n"},
		"negative dimension":   {Kind: "mm", MM: hdr + "-1 2 0\n"},
		"negative count":       {Kind: "mm", MM: hdr + "2 2 -1\n"},
		"size over MaxDim":     {Kind: "mm", MM: hdr + "2000000000 1 0\n"},
		"rectangular symmetry": {Kind: "mm", MM: "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1\n"},
		"dominance <= 1":       {Kind: "randomspd", N: 10, Dominance: 0.5},
		"socialgram n=1":       {Kind: "socialgram", N: 1},
	}
	for name, spec := range cases {
		_, resp := postSolve(t, ts, SolveRequest{Matrix: spec, Method: "cg", Tol: 1e-6})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Panics != 0 {
		t.Fatalf("stats.Panics = %d after malformed specs, want 0", st.Panics)
	}
}

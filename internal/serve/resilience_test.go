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

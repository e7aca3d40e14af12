package main

// Fast tests: nothing here starts a daemon.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/serve"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

func TestTailQuantile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, tc := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.95, 95, 5},
		{0.99, 99, 1},
	} {
		got, beyond := tailQuantile(samples, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("tailQuantile(1..100, %g) = %g with %d beyond, want %g with %d", tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if samples[0] != 100 {
		t.Error("tailQuantile reordered its input")
	}
}

// The reference quartiles are Python's statistics.quantiles(xs, n=4).
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5, 0.5}, 1.25, 3.5, 7.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); q1 != tc.q1 || m != tc.q2 || q3 != tc.q3 {
			t.Errorf("%v: quartiles %g, %g, %g; want %g, %g, %g", tc.xs, q1, m, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5 {
		t.Errorf("iqr(1..10) = %g, want 5.5", got)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	// noisy has an IQR of about 20% of its median.
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	for _, tc := range []struct {
		name          string
		old, cur      []float64
		lowerIsBetter bool
		bound         float64
		want          string
	}{
		{"identical runs", base, base, true, 0.1, same},
		{"every new run faster", base, scale(0.9, base), true, 0.1, better},
		{"every new run slower, within bound", base, scale(1.05, base), true, 0.1, same},
		{"slower beyond bound", base, scale(1.2, base), true, 0.1, worse},
		{"higher is better, lower values", base, scale(0.8, base), false, 0.1, worse},
		{"higher is better, higher values", base, scale(1.1, base), false, 0.1, better},
		{"old spread wider than bound", noisy, scale(1.02, noisy), true, 0.1, unresolved},
		{"wide spread but every new run better", noisy, scale(0.5, noisy), true, 0.1, better},
		{
			// Nine of ten pairs win, but the medians differ by less than
			// the old runs' IQR: not a resolved gain.
			"wins without a median shift beyond the IQR",
			base, []float64{99, 100, 98, 99, 101, 97, 99, 100, 98, 101}, true, 0.1, same,
		},
	} {
		if got := judge(tc.old, tc.cur, tc.lowerIsBetter, tc.bound); got.verdict != tc.want {
			t.Errorf("%s: verdict %q (change %+.3f, %d/%d wins), want %q", tc.name, got.verdict, got.change, got.wins, got.pairs, tc.want)
		}
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift fields.
	stat := "4242 (asy rgsd) x) S 1 4242 4242 0 -1 4194560 1563 0 0 0 731 95 0 0 20 0 9 0 5421 1293443072 45000 18446744073709551615"
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 731+95 {
		t.Errorf("parseStatCPU = %d, %v; want 826", ticks, err)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tasyrgsd\nVmPeak:\t 1300000 kB\nVmHWM:\t  168204 kB\nVmRSS:\t  160000 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 168204 {
		t.Errorf("parseStatusKB(VmHWM) = %d, %v; want 168204", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing key")
	}
}

func TestUploadMatrixDeterministicAndDominant(t *testing.T) {
	gen := func(seed uint64) (*mmMatrix, []byte) {
		m := genMM(clientRand(seed, 0), 500, 8, dominance)
		return m, m.appendMM(nil, "\n")
	}
	m, text := gen(7)
	if _, again := gen(7); !bytes.Equal(text, again) {
		t.Fatal("same seed produced different MatrixMarket bytes")
	}
	if _, other := gen(8); bytes.Equal(text, other) {
		t.Fatal("different seeds produced the same matrix")
	}

	offAbs := make([]float64, m.n)
	diag := make([]float64, m.n)
	for k, v := range m.vals {
		i, j := m.rows[k], m.cols[k]
		if i < j {
			t.Fatalf("entry (%d,%d) is above the diagonal", i, j)
		}
		if i == j {
			diag[i] += v
			continue
		}
		offAbs[i] += math.Abs(v)
		offAbs[j] += math.Abs(v)
	}
	for i := range diag {
		if !(diag[i] > offAbs[i]) {
			t.Fatalf("row %d: diagonal %g does not dominate off-diagonal sum %g", i, diag[i], offAbs[i])
		}
	}

	// The daemon's parser must see exactly the matrix the client checks
	// against.
	a, err := sparse.ReadMM(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want, got := make([]float64, m.n), make([]float64, m.n)
	m.mulVec(want, x)
	a.MulVec(got, x)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("row %d: client A·x = %g, parsed A·x = %g", i, want[i], got[i])
		}
	}
}

func TestMixedStreamDeterministic(t *testing.T) {
	draw := func(seed uint64, client, n int) []string {
		next := mixedSmallStream(seed, client)
		out := make([]string, n)
		for i := range out {
			out[i] = string(next().body)
		}
		return out
	}
	a, b := draw(3, 0, 200), draw(3, 0, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two streams of the same seed", i)
		}
	}
	if c := draw(3, 1, 200); strings.Join(a, "") == strings.Join(c, "") {
		t.Fatal("two clients drew the same stream")
	}

	counts := make([]int, len(mixedCatalogue))
	r := clientRand(5, 0)
	for i := 0; i < 20000; i++ {
		counts[zipfPick(r)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[len(counts)-1] {
		t.Errorf("zipf draws are not skewed toward low ranks: %v", counts)
	}
}

// TestReplayChecksAnswers runs requests of every shape through the
// in-process pipeline: generated systems, explicit batches and a small
// inline upload whose residual the client recomputes.
func TestReplayChecksAnswers(t *testing.T) {
	p := newReplayer(0)
	ctx := context.Background()
	next := mixedSmallStream(1, 0)
	sawBatch := false
	for i := 0; i < 40; i++ {
		rq := next()
		sawBatch = sawBatch || rq.rhs > 1
		rec := &spanRec{req: uint64(i)}
		if _, err := p.serveOne(ctx, rq, rec); err != nil {
			t.Fatalf("mixed request %d: %v", i, err)
		}
		if len(rec.spans) < 3 || rec.spans[0].Name != "serve.decode" || rec.spans[len(rec.spans)-1].Name != "serve.encode" {
			t.Fatalf("mixed request %d: spans %v", i, rec.spans)
		}
	}
	if !sawBatch {
		t.Error("the mixed stream sent no explicit batch in 40 requests")
	}

	r := clientRand(2, 0)
	m := genMM(r, 300, 6, dominance)
	b := make([]float64, m.n)
	for i := range b {
		b[i] = sixDigits(r)
	}
	up := request{tol: solveTol, rhs: 1, mm: m, b: b, body: uploadBody(m, b)}
	var req serve.SolveRequest
	if err := json.Unmarshal(up.body, &req); err != nil {
		t.Fatalf("upload body is not a valid solve request: %v", err)
	}
	st, err := p.serveOne(ctx, up, nil)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if st.nnz == 0 || st.converged != 1 {
		t.Errorf("upload solve stats %+v", st)
	}
}

// TestClosedLoopAndStatsDeltas drives an in-process serving handler (no
// daemon process) with both mixed-small clients and checks the client-side
// accounting and the /stats-derived layer metrics.
func TestClosedLoopAndStatsDeltas(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer srv.Close()
	wl, err := lookupWorkload("mixed-small")
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]func() request, wl.clients)
	warm := make([][]request, wl.clients)
	for c := range gens {
		gens[c] = wl.stream(4, c)
		for i := 0; i < wl.warmup; i++ {
			warm[c] = append(warm[c], gens[c]())
		}
	}
	ctx := context.Background()
	hc := newHTTPClient(wl.clients)
	defer hc.CloseIdleConnections()
	if err := warmUp(ctx, hc, srv.URL+"/solve", warm); err != nil {
		t.Fatal(err)
	}
	st0, err := getStats(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	lr := closedLoop(ctx, hc, srv.URL+"/solve", gens, 300*time.Millisecond)
	st1, err := getStats(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if lr.failed != 0 || lr.attempted == 0 || len(lr.latenciesMS) != lr.attempted {
		t.Fatalf("closed loop: %d attempted, %d failed, %d samples, first error %v", lr.attempted, lr.failed, len(lr.latenciesMS), lr.firstErr)
	}
	if got := st1.Requests - st0.Requests; got != uint64(lr.attempted) {
		t.Errorf("server saw %d requests, clients sent %d", got, lr.attempted)
	}
	if rps := lr.throughput(wl.clients); !(rps > 0) {
		t.Errorf("throughput %g", rps)
	}
	v := layerMetrics(st0, st1, mean(lr.latenciesMS), traceResult{})
	if v["serve.prep_hit_ratio"] != 1 || v["serve.stage.solve_ms"] <= 0 || v["serve.rejected"] != 0 {
		t.Errorf("after warm-up every system is prepared and solves take time: %v", v)
	}
}

// TestReplayConcurrentClients runs the traced replay with both mixed-small
// clients and checks that every layer span hangs off a request span and
// that the layer means account for the traced requests.
func TestReplayConcurrentClients(t *testing.T) {
	wl, err := lookupWorkload("mixed-small")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := replay(context.Background(), wl, 9, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed != 0 || tr.requests == 0 {
		t.Fatalf("replay: %d requests, %d failed, first error %v", tr.requests, tr.failed, tr.firstErr)
	}
	roots := map[uint64]span{}
	for _, s := range tr.spans {
		if s.Name == "request" {
			roots[s.Req] = s
		}
	}
	if len(roots) != tr.requests {
		t.Fatalf("%d root spans for %d requests", len(roots), tr.requests)
	}
	for _, s := range tr.spans {
		if s.Name == "request" {
			continue
		}
		root, ok := roots[s.Req]
		if !ok || s.Parent != 1 || s.Start < root.Start || s.End > root.End {
			t.Fatalf("span %+v is not inside its request %+v", s, root)
		}
	}
	self, reqBytes, _ := tr.layerMeans()
	if self["method.solve"] <= 0 || self["serve.decode"] <= 0 || reqBytes <= 0 {
		t.Errorf("layer means %v, request bytes %g", self, reqBytes)
	}
	if tr.solve.rhs < tr.requests || tr.solve.converged != tr.solve.rhs {
		t.Errorf("solve stats %+v for %d requests", tr.solve, tr.requests)
	}
}

func TestCheckReplyRejectsBadAnswers(t *testing.T) {
	ok := request{tol: 1e-6, rhs: 1}
	good, _ := json.Marshal(serve.SolveResponse{Method: "asyrgs", Converged: true, Residual: 5e-7})
	if err := checkReply(ok, 200, good); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	aerr := 0.5
	batch := request{tol: 1e-6, rhs: 2}
	for name, tc := range map[string]struct {
		rq     request
		status int
		resp   serve.SolveResponse
	}{
		"status 503":      {ok, 503, serve.SolveResponse{Converged: true}},
		"not converged":   {ok, 200, serve.SolveResponse{Converged: false, Residual: 1e-7}},
		"residual > tol":  {ok, 200, serve.SolveResponse{Converged: true, Residual: 2e-6}},
		"A-norm error":    {ok, 200, serve.SolveResponse{Converged: true, Residual: 1e-7, ANormErr: &aerr}},
		"short batch":     {batch, 200, serve.SolveResponse{Converged: true, Batch: []serve.BatchEntry{{Converged: true}}}},
		"bad batch entry": {batch, 200, serve.SolveResponse{Converged: true, Batch: []serve.BatchEntry{{Converged: true}, {Converged: false}}}},
	} {
		body, _ := json.Marshal(tc.resp)
		if err := checkReply(tc.rq, tc.status, body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// An upload whose returned x does not solve the client's own system.
	m := genMM(clientRand(1, 0), 50, 4, dominance)
	b := make([]float64, m.n)
	b[0] = 1
	up := request{tol: 1e-6, rhs: 1, mm: m, b: b}
	body, _ := json.Marshal(serve.SolveResponse{Converged: true, Residual: 1e-7, X: make([]float64, m.n)})
	if err := checkReply(up, 200, body); err == nil {
		t.Error("upload: a zero solution passed the residual recheck")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables this program
// prints in step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		defs []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(tc.defs) != len(tc.spec) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", tc.kind, len(tc.defs), len(tc.spec))
			continue
		}
		for i, d := range tc.defs {
			if s := tc.spec[i]; s.Name != d.name || s.Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", tc.kind, i, d.name, d.unit, s.Name, s.Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}

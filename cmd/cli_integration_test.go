// Package cmd_test builds the real CLI binaries and drives them end to
// end: matgen writes a MatrixMarket workload, asysolve solves it with
// several methods, and the outputs are checked for the promised artifacts.
package cmd_test

import (
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildTool compiles ./cmd/<name> into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = ".." // repo root relative to the cmd package directory
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestMatgenAsysolvePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	matgen := buildTool(t, dir, "matgen")
	asysolve := buildTool(t, dir, "asysolve")

	mtx := filepath.Join(dir, "a.mtx")
	out := run(t, matgen, "-kind", "randomspd", "-n", "300", "-nnz", "6", "-o", mtx)
	if !strings.Contains(out, "300 x 300") {
		t.Fatalf("matgen output unexpected: %s", out)
	}
	if fi, err := os.Stat(mtx); err != nil || fi.Size() == 0 {
		t.Fatalf("matrix file missing: %v", err)
	}

	sol := filepath.Join(dir, "x.mtx")
	for _, method := range []string{"asyrgs", "asyrgs-partitioned", "rgs", "cg", "fcg", "jacobi", "gs", "asyncjacobi", "kaczmarz"} {
		args := []string{"-A", mtx, "-method", method, "-tol", "1e-6", "-o", sol}
		out := run(t, asysolve, args...)
		if !strings.Contains(out, "converged=true") {
			t.Fatalf("method %s did not report convergence:\n%s", method, out)
		}
		if !strings.Contains(out, "relative A-norm error") {
			t.Fatalf("method %s missing A-norm report:\n%s", method, out)
		}
	}
	if fi, err := os.Stat(sol); err != nil || fi.Size() == 0 {
		t.Fatalf("solution file missing: %v", err)
	}

	// Delay measurement works at every chunk size: an explicit chunk
	// keeps it on.
	out = run(t, asysolve, "-A", mtx, "-method", "asyrgs", "-tol", "1e-6", "-chunk", "64")
	if !strings.Contains(out, "converged=true") || strings.Contains(out, "delay measurement disabled") {
		t.Fatalf("asysolve -chunk 64:\n%s", out)
	}

	// The roster listing is registry-driven: every built-in shows up.
	list := run(t, asysolve, "-method", "list")
	for _, name := range []string{"asyrgs", "cg", "fcg", "kaczmarz", "lsqcd", "lsqcd-async"} {
		if !strings.Contains(list, name) {
			t.Fatalf("-method list missing %q:\n%s", name, list)
		}
	}
}

func TestMatgenKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	matgen := buildTool(t, dir, "matgen")
	for _, kind := range []string{"socialgram", "laplacian2d", "laplacian3d", "overdetermined"} {
		path := filepath.Join(dir, kind+".mtx")
		n := "60"
		if kind == "laplacian3d" {
			n = "6"
		}
		out := run(t, matgen, "-kind", kind, "-n", n, "-o", path)
		if !strings.Contains(out, path) {
			t.Fatalf("matgen %s output unexpected: %s", kind, out)
		}
	}
}

// TestAsyrgsdEndToEnd boots the real daemon binary on a loopback port
// and drives one generator-spec solve plus the health, stats and metrics
// probes.
func TestAsyrgsdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	asyrgsd := buildTool(t, dir, "asyrgsd")

	// Reserve a free loopback port, release it, and hand it to the
	// daemon — avoids colliding with whatever else runs on the host.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(asyrgsd, "-addr", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	base := "http://" + addr
	var ready bool
	for i := 0; i < 100; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
			if ready {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !ready {
		t.Fatal("daemon did not become healthy")
	}

	body := `{"matrix":{"kind":"randomspd","n":150,"seed":3},"method":"asyrgs","tol":1e-6,"max_sweeps":500}`
	resp, err := http.Post(base+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, payload)
	}
	if !strings.Contains(string(payload), `"converged":true`) {
		t.Fatalf("solve did not converge: %s", payload)
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stats), `"solved":1`) {
		t.Fatalf("stats did not count the solve: %s", stats)
	}

	// /metrics from the real binary: the request counter, the /solve
	// latency histogram and the per-method histogram holding the solve.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"asyrgsd_requests_total",
		`asyrgsd_request_duration_seconds_bucket{endpoint="/solve"`,
		`asyrgsd_method_duration_seconds_count{method="asyrgs"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestAsybenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	asybench := buildTool(t, dir, "asybench")
	out := run(t, asybench, "-exp", "rho", "-n", "200", "-threads", "1,2")
	if !strings.Contains(out, "Interference parameters") {
		t.Fatalf("asybench rho output unexpected:\n%s", out)
	}
}

// TestAsybenchTable1Threads: Table 1 runs at the -threads count it is
// given, so one worker makes its outer-iteration column the same run to
// run.
func TestAsybenchTable1Threads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	asybench := buildTool(t, t.TempDir(), "asybench")
	outerColumn := func() string {
		out := run(t, asybench, "-exp", "table1", "-n", "200", "-threads", "1", "-repeats", "1")
		if !strings.Contains(out, "1 threads") {
			t.Fatalf("asybench table1 did not run 1 thread:\n%s", out)
		}
		var col []string
		for _, line := range strings.Split(out, "\n") {
			// A table row starts with the inner sweeps and outer iterations.
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			if _, err := strconv.Atoi(f[0]); err == nil {
				col = append(col, f[0]+":"+f[1])
			}
		}
		if len(col) != 7 {
			t.Fatalf("asybench table1 printed %d rows, want 7:\n%s", len(col), out)
		}
		return strings.Join(col, " ")
	}
	if a, b := outerColumn(), outerColumn(); a != b {
		t.Fatalf("outer column changed between runs: %s, then %s", a, b)
	}
}

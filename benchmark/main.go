// Command benchmark is asyrgs's end-to-end benchmark: it starts a fresh
// asyrgsd per workload on loopback, drives it from this one process with
// closed-loop clients, checks every answer from outside, and prints the
// client-visible metrics. With -trace 1 it instead reports per-layer
// metrics: /stats deltas from a daemon run plus spans from an in-process
// replay of the same request stream. See README.md.
//
// Usage (from the repository root, via run.sh, which builds both binaries):
//
//	bash benchmark/run.sh --workload warm-large --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh compare old.jsonl new.jsonl
package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/asynclinalg/asyrgs/internal/claim"
	"github.com/asynclinalg/asyrgs/internal/serve"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the client-visible metrics of a -trace 0 run.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"server_cpu_ms_per_req", "ms"},
	{"server_peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a -trace 1 run: daemon /stats deltas first,
// then the traced replay's layers in pipeline order.
var perLayer = []metricDef{
	{"serve.stage.build_ms", "ms"},
	{"serve.stage.prepare_ms", "ms"},
	{"serve.stage.queue_ms", "ms"},
	{"serve.stage.solve_ms", "ms"},
	{"serve.stage.respond_ms", "ms"},
	{"serve.unstaged_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.prep_hit_ratio", "ratio"},
	{"serve.batch_width", "count"},
	{"serve.coalesced_share", "ratio"},
	{"serve.rejected", "count"},
	{"serve.decode_ms", "ms"},
	{"serve.request_bytes", "B"},
	{"workload.build_ms", "ms"},
	{"sparse.readmm_ms", "ms"},
	{"sparse.nnz", "count"},
	{"method.prepare_ms", "ms"},
	{"workload.rhs_ms", "ms"},
	{"method.solve_ms", "ms"},
	{"method.sweeps", "count"},
	{"method.ns_per_iter", "ns"},
	{"method.bytes_per_iter", "B"},
	{"method.converged_share", "ratio"},
	{"sparse.anorm_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.response_bytes", "B"},
	{"runtime.alloc_kb_per_req", "kB"},
	{"runtime.gc_cycles", "count"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// daemonsPerRun is how many fresh daemons a -trace 0 run starts, warms up
// and measures in turn.
const daemonsPerRun = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envStamp records what the numbers were measured on. Go version and
// GOAMD64 are the daemon binary's; kernel and L2 are what this process's
// copy of the same packages reports on this machine.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	L2Bytes    int    `json:"l2_bytes"`
	Time       string `json:"time"`
}

// record is one run's entry in the result file: the summary plus the
// stamp, settings and raw samples compare needs.
type record struct {
	summary
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Seconds      int       `json:"seconds"`
	Trace        int       `json:"trace"`
	Clients      int       `json:"clients"`
	Env          envStamp  `json:"env"`
	FirstError   string    `json:"first_error,omitempty"`
	TailQuantile float64   `json:"tail_quantile,omitempty"`
	TailBeyond   int       `json:"tail_beyond,omitempty"`
	LatencyMS    []float64 `json:"latency_ms"`
	SetupS       []float64 `json:"setup_s,omitempty"`
	SpansFile    string    `json:"spans_file,omitempty"`
}

type config struct {
	wl        traffic
	seed      uint64
	seconds   int
	trace     bool
	daemonBin string
	spansDir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload: cold-gen, upload, warm-large or mixed-small")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		seconds   = fs.Int("seconds", 20, "length of the measured window")
		trace     = fs.Int("trace", 0, "1 reports per-layer metrics (daemon /stats deltas and a traced in-process replay)")
		daemonBin = fs.String("daemon", ".bench_build/asyrgsd", "asyrgsd binary")
		commit    = fs.String("commit", "unknown", "commit being measured, for the result stamp")
		out       = fs.String("out", ".bench_build/results.jsonl", "result file; each run appends one JSON line, and traced runs write spans beside it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(*daemonBin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: daemon binary:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, daemonBin: *daemonBin, spansDir: filepath.Join(filepath.Dir(*out), "spans")}
	rec, err := run(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rec.Env = stamp(*daemonBin, *commit)
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing result file:", err)
		return 2
	}
	printReport(os.Stdout, rec)
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d requests failed; first: %s\n", rec.Failed, rec.Attempted, rec.FirstError)
		return 1
	}
	return 0
}

// run measures one workload. A -trace 0 run starts daemonsPerRun fresh
// daemons one after another; each is warmed up, then driven for an equal
// share of the window. Latency, throughput and CPU pool the shares, and
// set-up time and peak RSS are medians over the daemons. A -trace 1 run
// drives one daemon for half the window, reading /stats before and after,
// stops it, then replays the same stream in-process, traced, for the
// other half.
func run(ctx context.Context, cfg config) (record, error) {
	wl := cfg.wl
	rec := record{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Clients: wl.clients}
	if cfg.trace {
		rec.Trace = 1
	}
	gens := make([]func() request, wl.clients)
	warm := make([][]request, wl.clients)
	for c := range gens {
		gens[c] = wl.stream(cfg.seed, c)
		for i := 0; i < wl.warmup; i++ {
			warm[c] = append(warm[c], gens[c]())
		}
	}
	hc := newHTTPClient(wl.clients)
	defer hc.CloseIdleConnections()

	daemons := daemonsPerRun
	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		daemons, window = 1, window/2
	}
	var (
		lr       loopResult
		cpuTicks uint64
		rssMB    []float64
		st0, st1 serve.Stats
	)
	for k := 0; k < daemons; k++ {
		t := time.Now()
		d, err := startDaemon(ctx, cfg.daemonBin, wl.cacheSize)
		if err != nil {
			return rec, err
		}
		err = func() error {
			defer d.stop()
			defer hc.CloseIdleConnections()
			if err := warmUp(ctx, hc, d.url("/solve"), warm); err != nil {
				return err
			}
			rec.SetupS = append(rec.SetupS, time.Since(t).Seconds())
			var err error
			if st0, err = getStats(d.url("/stats")); err != nil {
				return err
			}
			p0, err := readProc(d.pid())
			if err != nil {
				return err
			}
			lr.add(closedLoop(ctx, hc, d.url("/solve"), gens, window/time.Duration(daemons)))
			p1, err := readProc(d.pid())
			if err != nil {
				return err
			}
			cpuTicks += p1.cpuTicks - p0.cpuTicks
			rssMB = append(rssMB, float64(p1.hwmKB)/1024)
			st1, err = getStats(d.url("/stats"))
			return err
		}()
		if err != nil {
			return rec, err
		}
	}

	rec.Attempted, rec.Failed = lr.attempted, lr.failed
	if lr.firstErr != nil {
		rec.FirstError = lr.firstErr.Error()
	}
	rec.LatencyMS = roundSamples(lr.latenciesMS)
	if !cfg.trace {
		tail, beyond := tailQuantile(lr.latenciesMS, wl.tailQ)
		rec.TailQuantile, rec.TailBeyond = wl.tailQ, beyond
		rec.Metrics = metricSet(endToEnd, map[string]float64{
			"latency_p50_ms":        median(lr.latenciesMS),
			"latency_tail_ms":       tail,
			"throughput_rps":        lr.throughput(wl.clients),
			"server_cpu_ms_per_req": ms(time.Duration(cpuTicks)*clockTick) / float64(len(lr.latenciesMS)),
			"server_peak_rss_mb":    median(rssMB),
			"setup_s":               median(rec.SetupS),
		})
	} else {
		tr, err := replay(ctx, wl, cfg.seed, window)
		if err != nil {
			return rec, err
		}
		rec.Attempted += tr.attempted
		rec.Failed += tr.failed
		if rec.FirstError == "" && tr.firstErr != nil {
			rec.FirstError = tr.firstErr.Error()
		}
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return rec, err
		}
		rec.SpansFile = filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := writeSpans(rec.SpansFile, tr.spans); err != nil {
			return rec, fmt.Errorf("writing spans: %w", err)
		}
		rec.Metrics = metricSet(perLayer, layerMetrics(st0, st1, mean(lr.latenciesMS), tr))
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// metricSet attaches the units of defs to values. A value that could not
// be measured (no samples) is reported as 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " was not computed") // a bug in this file
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func stamp(daemonBin, commit string) envStamp {
	e := envStamp{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOAMD64:    "v1",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     sparse.KernelName(),
		L2Bytes:    claim.L2CacheBytes(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if info, err := buildinfo.ReadFile(daemonBin); err == nil {
		e.GoVersion = info.GoVersion
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				e.GOAMD64 = s.Value
			}
		}
	}
	return e
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints one line per metric, then the summary as the last
// line of standard output.
func printReport(w io.Writer, rec record) {
	mode := "end to end"
	defs := endToEnd
	if rec.Trace == 1 {
		mode, defs = "per layer", perLayer
	}
	fmt.Fprintf(w, "%s seed=%d %ds %s: %d attempted, %d failed, %d latency samples (%s)\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Attempted, rec.Failed, len(rec.LatencyMS), rec.Env.Commit)
	for _, d := range defs {
		m := rec.Metrics[d.name]
		note := ""
		if d.name == "latency_tail_ms" {
			note = fmt.Sprintf("  p%g, %d samples beyond", 100*rec.TailQuantile, rec.TailBeyond)
			if rec.TailBeyond < 10 {
				note += " (fewer than 10: not a trustworthy tail)"
			}
		}
		fmt.Fprintf(w, "  %-26s %14.6g %s%s\n", d.name, m.Value, m.Unit, note)
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		panic(err) // floats are sanitized by metricSet; the rest cannot fail
	}
	fmt.Fprintln(w, string(line))
}

// readRecords reads every JSON record of a result file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no -trace 0 runs", path)
	}
	return out, nil
}

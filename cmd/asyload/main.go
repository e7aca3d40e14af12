// Command asyload is the load generator for the asyrgsd serving daemon:
// N concurrent closed-loop clients — or an open-loop Poisson arrival
// process — drive one of the reusable traffic scenarios (see -scenario
// list) against a target daemon, or against a self-hosted in-process
// server when no target is given, and report throughput, interpolated
// p50/p95/p99 latency, error and cache-hit rates, plus the delta of the
// server's own /stats counters.
//
// Usage:
//
//	asyload [-target http://host:8080] [-scenario mixed] [-clients 8]
//	        [-duration 10s] [-requests 0] [-n 96] [-seed 1]
//	        [-open] [-rate 100]
//	        [-knee] [-rate-start 50] [-rate-factor 2] [-knee-steps 8]
//	        [-step-duration 2s] [-knee-out BENCH_knee.json]
//	        [-json] [-out BENCH_serve.json]
//	        [-max-concurrent P] [-batch-window 2ms] [-batch-target 0] [-cache 16]
//	        [-baseline BENCH_serve.json] [-slo-p99-factor 25] [-slo-error-band 0.05]
//	        [-knee-baseline BENCH_knee.json] [-slo-knee-factor 4]
//
// With -target empty the generator self-hosts a serve.Server behind a
// direct handler transport (no sockets) sized by the -max-concurrent,
// -batch-window, -batch-target and -cache knobs — the hermetic mode CI
// uses to regenerate the BENCH_serve.json baseline. -scenario list
// prints the catalogue. -json writes the report to -out (default
// BENCH_serve.json).
//
// -open switches to open-loop mode: requests depart on a Poisson
// schedule at -rate req/s regardless of how fast earlier ones complete,
// and every latency is measured from the request's intended departure
// instant — a server that falls behind accrues queueing delay in the
// numbers instead of silently throttling the generator (coordinated
// omission). -knee runs the open-loop capacity sweep: the offered rate
// steps geometrically from -rate-start by -rate-factor for up to
// -knee-steps steps of -step-duration each, until p99 explodes or
// errors appear; the sweep (with every per-step report) is written to
// -knee-out with -json.
//
// With -baseline (or, for sweeps, -knee-baseline) the run becomes an
// SLO gate: the fresh report is compared against the committed baseline
// and the process exits 3 when p99 latency exceeds -slo-p99-factor
// times the baseline's, the error rate exceeds the baseline's by more
// than -slo-error-band, or the measured capacity knee falls below the
// baseline's knee divided by -slo-knee-factor — CI's load-smoke
// regression check. Baselines are read before -json overwrites them, so
// one invocation can gate and regenerate.
//
// Examples:
//
//	asyload -scenario warm-repeat -clients 8 -duration 5s
//	asyload -target http://localhost:8080 -scenario mixed -clients 8 -duration 2s -json
//	asyload -scenario mixed -clients 4 -duration 2s -baseline BENCH_serve.json -json
//	asyload -scenario warm-repeat -open -rate 200 -duration 5s
//	asyload -scenario mixed -knee -rate-start 50 -knee-steps 6 -step-duration 2s -json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/asynclinalg/asyrgs/internal/load"
	"github.com/asynclinalg/asyrgs/internal/serve"
)

// writeArtifact creates path and streams one JSON report into it.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func main() {
	var (
		targetURL   = flag.String("target", "", "daemon base URL; empty self-hosts an in-process server")
		scenario    = flag.String("scenario", "mixed", "traffic scenario, or 'list' for the catalogue")
		clients     = flag.Int("clients", 8, "concurrent closed-loop clients")
		duration    = flag.Duration("duration", 10*time.Second, "run length (in-flight requests complete)")
		requests    = flag.Int("requests", 0, "total request budget (0 = duration-bounded)")
		n           = flag.Int("n", 96, "base problem dimension the scenarios scale from")
		seed        = flag.Uint64("seed", 1, "request-stream seed")
		jsonOut     = flag.Bool("json", false, "write the report as a JSON baseline")
		outPath     = flag.String("out", "BENCH_serve.json", "baseline path used with -json")
		openLoop    = flag.Bool("open", false, "open-loop mode: Poisson arrivals at -rate, latency from intended departure (no coordinated omission)")
		rate        = flag.Float64("rate", 100, "open-loop target arrival rate in req/s")
		knee        = flag.Bool("knee", false, "capacity sweep: step the open-loop rate geometrically until p99 explodes")
		rateStart   = flag.Float64("rate-start", 50, "knee sweep: first offered rate in req/s")
		rateFactor  = flag.Float64("rate-factor", 2, "knee sweep: rate multiplier between steps")
		kneeSteps   = flag.Int("knee-steps", 8, "knee sweep: maximum number of rate steps")
		stepDur     = flag.Duration("step-duration", 2*time.Second, "knee sweep: wall time per rate step")
		kneeOut     = flag.String("knee-out", "BENCH_knee.json", "knee artifact path used with -knee -json")
		maxConc     = flag.Int("max-concurrent", 0, "self-hosted: max in-flight solve batches (0 = GOMAXPROCS)")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "self-hosted: max coalescing wait (the adaptive deadline shortens it)")
		batchTarget = flag.Int("batch-target", 0, "self-hosted: flush coalesced batches at this width (0 = adapt)")
		cacheSize   = flag.Int("cache", 16, "self-hosted: built-matrix LRU capacity")
		baseline    = flag.String("baseline", "", "committed BENCH_serve.json to gate this run against (SLO check)")
		sloP99      = flag.Float64("slo-p99-factor", 25, "fail (exit 3) when p99 exceeds this multiple of the baseline's; 0 disables")
		sloErrBand  = flag.Float64("slo-error-band", 0.05, "fail (exit 3) when the error rate exceeds the baseline's by more than this; negative disables")
		kneeBase    = flag.String("knee-baseline", "", "committed BENCH_knee.json to gate a -knee sweep against")
		sloKnee     = flag.Float64("slo-knee-factor", 4, "fail (exit 3) when the knee falls below the baseline's divided by this; 0 disables")
	)
	flag.Parse()

	if *scenario == "list" {
		for _, s := range load.Scenarios() {
			fmt.Printf("%-12s %s\n", s.Name, s.Description)
		}
		return
	}

	// Read the committed baseline before the run: with -json the run's
	// own report may overwrite the same path afterwards.
	var sloBaseline *load.Report
	if *baseline != "" {
		base, err := load.ReadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
			os.Exit(2)
		}
		sloBaseline = &base
	}

	// The knee gate's baseline is read up front for the same reason.
	var kneeBaseline *load.KneeReport
	if *kneeBase != "" {
		base, err := load.ReadKneeBaseline(*kneeBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
			os.Exit(2)
		}
		kneeBaseline = &base
	}

	var target *load.Target
	if *targetURL == "" {
		fmt.Println("asyload: no -target, self-hosting an in-process server")
		target = load.NewInProcessTarget(serve.Config{
			MaxConcurrent: *maxConc,
			BatchWindow:   *batchWindow,
			BatchTarget:   *batchTarget,
			CacheSize:     *cacheSize,
		})
	} else {
		target = load.NewHTTPTarget(*targetURL)
	}
	defer target.Close()

	if *knee {
		sweep, err := load.Knee(context.Background(), target, load.KneeOptions{
			Scenario:     *scenario,
			StartRate:    *rateStart,
			Factor:       *rateFactor,
			Steps:        *kneeSteps,
			StepDuration: *stepDur,
			Seed:         *seed,
			N:            *n,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(sweep.String())
		if *jsonOut {
			if err := writeArtifact(*kneeOut, sweep.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("knee artifact written to %s\n", *kneeOut)
		}
		if kneeBaseline != nil {
			slo := load.SLO{KneeFactor: *sloKnee}
			if err := slo.CheckKnee(sweep, *kneeBaseline); err != nil {
				fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
				os.Exit(3)
			}
			fmt.Printf("knee SLO gate passed vs %s (knee %.1f ≥ %.1f/%.1f req/s)\n",
				*kneeBase, sweep.KneeRPS, kneeBaseline.KneeRPS, *sloKnee)
		}
		return
	}

	rep, err := load.Run(context.Background(), target, load.Options{
		Scenario:    *scenario,
		Clients:     *clients,
		Duration:    *duration,
		MaxRequests: *requests,
		Seed:        *seed,
		N:           *n,
		OpenLoop:    *openLoop,
		Rate:        *rate,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep.String())

	if *jsonOut {
		if err := writeArtifact(*outPath, rep.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baseline written to %s\n", *outPath)
	}

	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "asyload: no requests completed")
		os.Exit(1)
	}

	// SLO gate: compare this run against the committed baseline (read
	// before any -json overwrite), failing with a distinct exit code so
	// CI can tell a latency/error regression from an unusable run.
	if sloBaseline != nil {
		slo := load.SLO{P99Factor: *sloP99, ErrorBand: *sloErrBand}
		if err := slo.Check(rep, *sloBaseline); err != nil {
			fmt.Fprintf(os.Stderr, "asyload: %v\n", err)
			os.Exit(3)
		}
		fmt.Printf("SLO gate passed vs %s (p99 ≤ %.1f× %.2fms, error rate ≤ %.3f+%.3f)\n",
			*baseline, *sloP99, sloBaseline.P99US/1e3, sloBaseline.ErrorRate, *sloErrBand)
	}
}

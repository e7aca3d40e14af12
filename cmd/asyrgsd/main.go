// Command asyrgsd is the asynchronous-solver serving daemon: an HTTP
// JSON API over the unified method registry's two-phase Prepare/Solve
// pipeline. It accepts MatrixMarket-or-generator-spec solve requests,
// keeps LRUs of built matrices and of prepared solver systems (keyed by
// matrix×method×prep-opts) so warm requests pay only iteration cost,
// coalesces concurrent same-system requests into one batched multi-RHS
// solve, and bounds concurrency with a worker-pool admission gate.
//
// Usage:
//
//	asyrgsd [-addr :8080] [-max-concurrent P] [-cache 16] [-prep-cache 64]
//	        [-batch-window 2ms] [-batch-target 0] [-queue-timeout 5s]
//	        [-solve-timeout 60s] [-max-dim 1048576] [-drain-timeout 10s]
//
// Endpoints: POST /solve, GET /methods, GET /healthz, GET /stats (JSON
// counters plus per-endpoint/per-method latency summaries), GET /metrics
// (the same counters and raw latency histograms in Prometheus text
// format, ready to scrape). The benchmark/ module drives a daemon with
// closed-loop workloads and reports the client-side view.
//
// Example:
//
//	curl -s localhost:8080/solve -d '{
//	  "matrix": {"kind": "laplacian2d", "n": 64},
//	  "method": "asyrgs", "tol": 1e-6, "max_sweeps": 2000
//	}'
//
// The sharded distributed-memory backend serves the same way — its
// deployment shape (workers, queue_cap) keys the prepared-system cache,
// so warm solves of one shape skip partitioning and setup entirely:
//
//	curl -s localhost:8080/solve -d '{
//	  "matrix": {"kind": "randomspd", "n": 4096, "seed": 1},
//	  "method": "asyrgs-distmem", "workers": 8, "queue_cap": 4,
//	  "tol": 1e-6, "max_sweeps": 2000
//	}'
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight solves for up to -drain-timeout before exiting; a second
// signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxConc      = flag.Int("max-concurrent", 0, "max in-flight solve batches (0 = GOMAXPROCS)")
		cacheSize    = flag.Int("cache", 16, "built-matrix LRU capacity")
		prepCache    = flag.Int("prep-cache", 0, "prepared-system LRU capacity (0 = 4x -cache)")
		batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "max coalescing wait for concurrent same-system requests; the adaptive deadline shortens it (negative disables)")
		batchTarget  = flag.Int("batch-target", 0, "flush a coalesced batch at this width (0 = adapt to observed widths)")
		queueTimeout = flag.Duration("queue-timeout", 5*time.Second, "max wait for an admission slot")
		solveTimeout = flag.Duration("solve-timeout", 60*time.Second, "per-batch solve budget")
		maxDim       = flag.Int("max-dim", 1<<20, "largest accepted matrix dimension")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight solves on shutdown")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxConcurrent: *maxConc,
		CacheSize:     *cacheSize,
		PrepCacheSize: *prepCache,
		BatchWindow:   *batchWindow,
		BatchTarget:   *batchTarget,
		QueueTimeout:  *queueTimeout,
		SolveTimeout:  *solveTimeout,
		MaxDim:        *maxDim,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting new
	// connections and drains in-flight solves for up to -drain-timeout; a
	// second signal (or an expired drain budget) exits immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		stop() // restore default handling: a second signal kills the process
		log.Printf("asyrgsd: shutdown requested, draining in-flight solves (up to %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("asyrgsd: drain incomplete: %v; closing", err)
			_ = httpSrv.Close()
			return
		}
		log.Printf("asyrgsd: drained cleanly")
	}()

	fmt.Printf("asyrgsd listening on %s (methods: %s)\n", *addr, strings.Join(method.Names(), ", "))
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to finish draining before exiting.
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("asyrgsd: %v", err)
	}
	<-drained
}

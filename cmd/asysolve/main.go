// Command asysolve solves a linear system read from MatrixMarket files,
// dispatching through the unified solver registry (internal/method): any
// registered method is available by name, with uniform options and
// reporting.
//
// Usage:
//
//	asysolve -A matrix.mtx [-b rhs.mtx] [-method name | -method list]
//	         [-tol 1e-6] [-maxsweeps 1000] [-workers P] [-beta b] [-inner k]
//	         [-check k] [-queue-cap c] [-chunk k] [-timeout d]
//	         [-o solution.mtx] [-repeat k]
//
// When -b is omitted a random right-hand side with known solution is
// generated, and the final A-norm error is reported alongside the
// residual. The right-hand side file may be a coordinate MatrixMarket
// vector (n×1 matrix).
//
// The solve runs through the two-phase Prepare/Solve pipeline: per-matrix
// setup (Gram/CSC views, row norms, diagonal scaling) is captured once
// and timed separately from the solve, and -repeat k re-solves the same
// prepared system k times with fresh right-hand sides — the serving shape
// where preparation amortizes away.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asysolve: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		matPath    = flag.String("A", "", "MatrixMarket file with the coefficient matrix (required)")
		rhsPath    = flag.String("b", "", "MatrixMarket file with the right-hand side (n×1); random if omitted")
		methodName = flag.String("method", "asyrgs", "registry method name, or 'list' to print the roster")
		tol        = flag.Float64("tol", 1e-6, "relative residual tolerance")
		maxSweeps  = flag.Int("maxsweeps", 1000, "sweep/iteration budget")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		beta       = flag.Float64("beta", 0, "step size β in (0,2); 0 = method default")
		inner      = flag.Int("inner", 2, "preconditioner sweeps for fcg")
		checkEvery = flag.Int("check", 0, "sweeps between residual checks (0 = the method's default, predicted from the measured rate where the method supports it)")
		queueCap   = flag.Int("queue-cap", 0, "per-peer message-queue budget of the sharded asyrgs-distmem backend (0 = default 4)")
		chunk      = flag.Int("chunk", 0, "iteration-claiming granularity of the asynchronous methods (0 = auto)")
		timeout    = flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		outPath    = flag.String("o", "", "write the solution as an n×1 MatrixMarket file")
		seed       = flag.Uint64("seed", 1, "seed for directions and generated RHS")
		repeat     = flag.Int("repeat", 1, "solve this many right-hand sides against the prepared system")
	)
	flag.Parse()

	if *methodName == "list" {
		for _, m := range method.All() {
			fmt.Printf("%-20s %s\n", m.Name(), m.Kind())
		}
		return
	}
	m, err := method.Get(*methodName)
	if err != nil {
		fatalf("%v", err)
	}
	if *matPath == "" {
		fatalf("-A is required")
	}
	f, err := os.Open(*matPath)
	if err != nil {
		fatalf("%v", err)
	}
	a, err := sparse.ReadMM(f)
	f.Close()
	if err != nil {
		fatalf("reading %s: %v", *matPath, err)
	}
	fmt.Println(workload.Describe(*matPath, a))

	var b, xstar []float64
	if *rhsPath != "" {
		rf, err := os.Open(*rhsPath)
		if err != nil {
			fatalf("%v", err)
		}
		b, err = sparse.ReadMMVector(rf)
		rf.Close()
		if err != nil {
			fatalf("reading %s: %v", *rhsPath, err)
		}
		if len(b) != a.Rows {
			fatalf("right-hand side has %d entries, matrix has %d rows", len(b), a.Rows)
		}
	} else {
		if m.Kind() == method.SPD {
			b, xstar = workload.RHSForSolution(a, *seed)
			fmt.Println("generated random RHS with known solution (b = A·x*)")
		} else {
			b = workload.RandomRHS(a.Rows, *seed)
			fmt.Println("generated random RHS")
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := method.Opts{
		Tol: *tol, MaxSweeps: *maxSweeps, Workers: *workers,
		Beta: *beta, Seed: *seed, Inner: *inner, CheckEvery: *checkEvery,
		QueueCap: *queueCap, Chunk: *chunk, XStar: xstar, MeasureDelay: true,
	}

	// Phase 1: capture the per-matrix state once.
	prepStart := time.Now()
	ps, err := method.Prepare(ctx, m, a, opts)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("prepared %s in %v\n", m.Name(), time.Since(prepStart).Round(time.Microsecond))

	// Phase 2: solve — once, or -repeat times with fresh right-hand sides
	// to demonstrate the amortized warm path.
	x := make([]float64, a.Cols)
	res, err := ps.Solve(ctx, b, x, opts)
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		fatalf("%v", err)
	}
	for k := 1; k < *repeat; k++ {
		bk := workload.RandomRHS(a.Rows, *seed+uint64(k))
		xk := make([]float64, a.Cols)
		warmOpts := opts
		warmOpts.XStar = nil
		warm, werr := ps.Solve(ctx, bk, xk, warmOpts)
		if werr != nil && !errors.Is(werr, method.ErrNotConverged) {
			fatalf("warm solve %d: %v", k, werr)
		}
		fmt.Printf("warm solve %d: time=%v relative-residual=%.3e converged=%v\n",
			k, warm.Wall.Round(time.Millisecond), warm.Residual, warm.Converged)
	}

	fmt.Printf("sweeps=%d checks=%d iterations=%d", res.Sweeps, res.Checks, res.Iterations)
	if res.ObservedTau > 0 {
		fmt.Printf(" observed-tau=%d", res.ObservedTau)
	}
	if res.Messages > 0 {
		fmt.Printf(" messages=%d max-queue=%d", res.Messages, res.MaxQueue)
	}
	fmt.Println()
	fmt.Printf("method=%s time=%v relative-residual=%.3e converged=%v\n",
		res.Method, res.Wall.Round(time.Millisecond), res.Residual, res.Converged)
	if xstar != nil && a.Rows == a.Cols {
		fmt.Printf("relative A-norm error=%.3e\n", res.ANormErr)
	}

	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := sparse.WriteMMVector(of, x); err != nil {
			fatalf("writing %s: %v", *outPath, err)
		}
		of.Close()
		fmt.Printf("solution written to %s\n", *outPath)
	}
}

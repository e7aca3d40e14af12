// Command asybench regenerates every table and figure of the paper's
// evaluation section on the synthetic workload, plus the analytical
// validation experiments. The -exp flag lists every experiment.
//
// Usage:
//
//	asybench [-exp all|fig1|fig2|table1|fig3|theory|beta|sync|lsq|rho|...]
//	         [-n terms] [-rhs cols] [-sweeps k] [-repeats r] [-seed s]
//	         [-tol eps] [-threads list]
//
// The distmem experiment sweeps the sharded distributed-memory backend
// (asyrgs-distmem, dispatched through the registry) over worker counts
// and queue capacities. Serving performance, as an asyrgsd client sees
// it, is measured by the benchmark/ module.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/asynclinalg/asyrgs/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all|fig1|fig2|table1|fig3|theory|beta|sync|lsq|rho|delays|sampling|faults|distmem|classic|methods")
		terms   = flag.Int("n", 1500, "Gram matrix dimension (paper: 120147)")
		rhs     = flag.Int("rhs", 16, "right-hand sides solved together (paper: 51)")
		sweeps  = flag.Int("sweeps", 10, "sweeps for the fixed-work experiments (paper: 10)")
		repeats = flag.Int("repeats", 5, "runs per median (paper: 5)")
		seed    = flag.Uint64("seed", 42, "workload and direction-stream seed")
		tol     = flag.Float64("tol", 1e-8, "Flexible-CG convergence tolerance (paper: 1e-8)")
		threads = flag.String("threads", "1,2,4,8,16,32,64", "comma-separated thread counts (table1 runs the largest)")
	)
	flag.Parse()

	cfg := bench.Default()
	cfg.Terms = *terms
	cfg.RHSCols = *rhs
	cfg.Sweeps = *sweeps
	cfg.Repeats = *repeats
	cfg.Seed = *seed
	cfg.Out = os.Stdout
	cfg.Threads = nil
	for _, f := range strings.Split(*threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "asybench: bad thread count %q\n", f)
			os.Exit(2)
		}
		cfg.Threads = append(cfg.Threads, v)
	}

	r := bench.NewRunner(cfg)
	run := func(name string) {
		switch name {
		case "fig1":
			r.Fig1(200)
		case "fig2":
			r.Fig2Left()
			r.Fig2Center()
			r.Fig2Right()
		case "table1":
			r.Table1(*tol)
		case "fig3":
			r.Fig3(*tol)
		case "theory":
			r.TheoryValidation(20, nil, 0, 0)
		case "beta":
			r.BetaSweep(16, 16, 30, nil)
		case "sync":
			r.SyncPeriodSweep(8, *sweeps, nil)
		case "lsq":
			r.LSQValidation(0, 0, 0, nil)
		case "rho":
			r.RhoReport([]int{50, 200})
		case "delays":
			r.DelayDistribution(*sweeps)
		case "sampling":
			r.SamplingAblation(0, *sweeps)
		case "faults":
			r.FaultInjection(8, *sweeps)
		case "distmem":
			r.DistMem(nil, *sweeps, nil)
		case "classic":
			r.ClassicVsRandomized(8, *sweeps)
		case "methods":
			r.MethodTable(1e-6, 500, 0)
		default:
			fmt.Fprintf(os.Stderr, "asybench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"rho", "fig1", "fig2", "table1", "fig3", "theory", "beta", "sync", "lsq", "delays", "sampling", "faults", "distmem", "classic", "methods"} {
			run(name)
		}
		return
	}
	run(*exp)
}

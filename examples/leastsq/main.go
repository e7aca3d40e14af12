// Overdetermined least squares (§8 of the paper): fit a sparse linear
// model by asynchronous randomized coordinate descent — iteration (21),
// which is AsyRGS applied implicitly to the normal equations AᵀA x = Aᵀb
// without ever forming AᵀA. Compares the sequential iteration (20), the
// asynchronous variant (Theorem 5 requires β < 1), and randomized Kaczmarz
// on the same consistent system.
//
//	go run ./examples/leastsq
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"time"

	asyrgs "github.com/asynclinalg/asyrgs"
)

func main() {
	const rows, cols = 8000, 2000
	a := asyrgs.RandomOverdetermined(rows, cols, 8, 21)
	fmt.Println(asyrgs.DescribeMatrix("design matrix", a))
	b := asyrgs.RandomRHS(rows, 22) // generically inconsistent: true LS problem
	workers := runtime.GOMAXPROCS(0)
	const sweeps = 60

	run := func(name string, w int, beta float64) []float64 {
		s, err := asyrgs.NewLSQ(a, asyrgs.LSQOptions{Workers: w, Seed: 23, Beta: beta})
		if err != nil {
			log.Fatal(err)
		}
		x := make([]float64, cols)
		start := time.Now()
		s.Iterations(x, b, sweeps*cols)
		d := time.Since(start)
		fmt.Printf("%-22s %2d workers, β=%.2f: ‖Aᵀ(b−Ax)‖=%.3e  ‖b−Ax‖=%.4f  (%v)\n",
			name, w, beta, s.LSQResidual(x, b), s.ResidualNorm(x, b), d.Round(time.Millisecond))
		return x
	}

	fmt.Printf("\n%d sweeps of randomized coordinate descent:\n", sweeps)
	xSeq := run("sequential (it. 20)", 1, 1.0)
	xAsy := run("asynchronous (it. 21)", workers, 0.9)

	// The two minimisers should agree.
	var maxDiff float64
	for i := range xSeq {
		if d := xSeq[i] - xAsy[i]; d > maxDiff {
			maxDiff = d
		} else if -d > maxDiff {
			maxDiff = -d
		}
	}
	fmt.Printf("\nmax |x_seq − x_async| = %.2e (both approach the same minimiser)\n", maxDiff)

	// Kaczmarz baseline needs a consistent system; build one.
	// One Kaczmarz sweep is rows projections: at most 40 sweeps, with a
	// residual check every 4.
	bc, xstar := asyrgs.RHSForSolution(a, 24)
	kz, err := asyrgs.GetMethod("kaczmarz")
	if err != nil {
		log.Fatal(err)
	}
	xk := make([]float64, cols)
	start := time.Now()
	res, err := kz.Solve(context.Background(), a, bc, xk, asyrgs.MethodOpts{
		Tol: 1e-6, MaxSweeps: 40, CheckEvery: 4, Workers: workers, Beta: 0.9, Seed: 25,
	})
	status := "converged"
	if errors.Is(err, asyrgs.ErrNotConverged) {
		status = "budget exhausted"
	} else if err != nil {
		log.Fatal(err)
	}
	var kerr float64
	for i := range xk {
		if d := xk[i] - xstar[i]; d > kerr {
			kerr = d
		} else if -d > kerr {
			kerr = -d
		}
	}
	fmt.Printf("\nasync Kaczmarz on the consistent system: %s after %d projections, residual %.2e, max err %.2e (%v)\n",
		status, res.Iterations, res.Residual, kerr, time.Since(start).Round(time.Millisecond))
}

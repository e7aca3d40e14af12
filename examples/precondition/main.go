// Flexible-CG + AsyRGS: the paper's recommended configuration for high
// accuracy. AsyRGS alone converges like a basic iteration (slow past
// moderate accuracy); wrapped as a flexible preconditioner it supplies
// cheap, perfectly parallel error smoothing while FCG supplies the Krylov
// rate. Reproduces the Table 1 trade-off: more inner sweeps → fewer outer
// iterations but more matrix work; ~2 inner sweeps is the sweet spot.
//
//	go run ./examples/precondition
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	asyrgs "github.com/asynclinalg/asyrgs"
)

func main() {
	const terms = 1000
	gram, _ := asyrgs.SocialGram(asyrgs.DefaultSocialGram(terms, 5))
	fmt.Println(asyrgs.DescribeMatrix("gram", gram))
	b := asyrgs.RandomRHS(terms, 6)
	workers := runtime.GOMAXPROCS(0)
	const tol = 1e-8

	fmt.Printf("\nFCG + AsyRGS preconditioner, tol=%.0e, %d threads\n", tol, workers)
	fmt.Printf("%-8s %-8s %-16s %-12s %-12s\n", "inner", "outer", "outer*(inner+1)", "time", "mat-ops/s")
	type row struct {
		inner, outer int
		d            time.Duration
	}
	var best row
	// The registry's "fcg" is Flexible-CG preconditioned by Inner AsyRGS
	// sweeps; Prepare validates the matrix once for every run below.
	fcg := prepare("fcg", gram)
	for _, inner := range []int{30, 10, 5, 2, 1} {
		x := make([]float64, terms)
		start := time.Now()
		res, err := fcg.Solve(context.Background(), b, x, asyrgs.MethodOpts{
			Tol: tol, MaxSweeps: 4000, Workers: workers, Seed: 7, Inner: inner,
		})
		d := time.Since(start)
		if err != nil {
			log.Fatalf("inner=%d: %v (%+v)", inner, err, res)
		}
		matOps := res.Sweeps * (inner + 1)
		fmt.Printf("%-8d %-8d %-16d %-12v %-12.1f\n",
			inner, res.Sweeps, matOps, d.Round(time.Millisecond), float64(matOps)/d.Seconds())
		if best.d == 0 || d < best.d {
			best = row{inner, res.Sweeps, d}
		}
	}
	fmt.Printf("\nfastest: %d inner sweeps (%v, %d outer iterations)\n", best.inner, best.d.Round(time.Millisecond), best.outer)

	// Contrast: plain CG without preconditioning.
	x := make([]float64, terms)
	start := time.Now()
	res, err := prepare("cg", gram).Solve(context.Background(), b, x, asyrgs.MethodOpts{
		Tol: tol, MaxSweeps: 40_000, Workers: workers,
	})
	if err != nil {
		fmt.Printf("plain CG: not converged after %d iterations (residual %.1e)\n", res.Sweeps, res.Residual)
	} else {
		fmt.Printf("plain CG: %d iterations in %v\n", res.Sweeps, time.Since(start).Round(time.Millisecond))
	}
}

// prepare readies a registry method on a.
func prepare(name string, a *asyrgs.Matrix) asyrgs.PreparedSystem {
	m, err := asyrgs.GetMethod(name)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := asyrgs.PrepareMethod(context.Background(), m, a, asyrgs.MethodOpts{})
	if err != nil {
		log.Fatal(err)
	}
	return ps
}

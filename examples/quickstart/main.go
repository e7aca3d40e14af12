// Quickstart: solve a sparse SPD system with AsyRGS using all CPUs, then
// verify against conjugate gradients, both through the method registry.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	asyrgs "github.com/asynclinalg/asyrgs"
)

func main() {
	// A 3D Poisson problem: the canonical "reference scenario" matrix of
	// the paper (bounded row sizes, SPD, no diagonal dominance needed —
	// but this one happens to be dominant too).
	const side = 20
	a := asyrgs.Laplacian3D(side, side, side)
	n := a.Rows
	fmt.Println(asyrgs.DescribeMatrix("poisson3d", a))

	// A right-hand side with a known solution so we can report true error.
	b, xstar := asyrgs.RHSForSolution(a, 1)

	// AsyRGS: every core races over the same iterate with atomic
	// single-coordinate updates; directions come from a counter-based
	// random stream so the run is reproducible for a fixed seed. The
	// residual is checked every 5 sweeps, for at most 600.
	workers := runtime.GOMAXPROCS(0)
	asy, err := asyrgs.GetMethod("asyrgs")
	if err != nil {
		log.Fatal(err)
	}
	x := make([]float64, n)
	res, err := asy.Solve(context.Background(), a, b, x, asyrgs.MethodOpts{
		Tol: 1e-6, MaxSweeps: 600, CheckEvery: 5,
		Workers: workers, Seed: 7, MeasureDelay: true, XStar: xstar,
	})
	if err != nil {
		log.Fatalf("AsyRGS did not converge: %v (%+v)", err, res)
	}
	fmt.Printf("AsyRGS  (%2d workers): %3d sweeps, residual %.2e, observed τ̂=%d\n",
		workers, res.Sweeps, res.Residual, res.ObservedTau)
	fmt.Printf("         true relative A-norm error: %.2e\n", res.ANormErr)

	// Cross-check with CG.
	cg, err := asyrgs.GetMethod("cg")
	if err != nil {
		log.Fatal(err)
	}
	xcg := make([]float64, n)
	cgRes, err := cg.Solve(context.Background(), a, b, xcg, asyrgs.MethodOpts{
		Tol: 1e-6, MaxSweeps: 2000, Workers: workers,
	})
	if err != nil {
		log.Fatalf("CG did not converge: %v (%+v)", err, cgRes)
	}
	fmt.Printf("CG      (%2d workers): %3d iterations, residual %.2e\n",
		workers, cgRes.Sweeps, cgRes.Residual)

	// The bound-optimal asynchronous step size for this matrix (Theorem 3).
	// The theorems define ρ on the unit-diagonal scaling.
	scaled, _, err := asyrgs.UnitDiagonalScale(a)
	if err != nil {
		log.Fatal(err)
	}
	rho := asyrgs.Rho(scaled)
	fmt.Printf("theory: ρ·n = %.2f, optimal β̃ for τ=%d is %.3f\n",
		rho*float64(n), workers, asyrgs.OptimalBeta(rho, workers))
}

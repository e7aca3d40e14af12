// Quickstart: solve a sparse SPD system with AsyRGS using all CPUs, then
// verify against conjugate gradients.
//
//	go run ./examples/quickstart
package main

import (
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
	// random stream so the run is reproducible for a fixed seed.
	workers := runtime.GOMAXPROCS(0)
	solver, err := asyrgs.NewSolver(a, asyrgs.Options{
		Workers:      workers,
		Seed:         7,
		MeasureDelay: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	x := make([]float64, n)
	res, err := solver.SolveAsync(x, b, 1e-6, 600, 5)
	if err != nil {
		log.Fatalf("AsyRGS did not converge: %+v", res)
	}
	fmt.Printf("AsyRGS  (%2d workers): %3d sweeps, residual %.2e, observed τ̂=%d\n",
		workers, res.Sweeps, res.Residual, res.ObservedTau)
	fmt.Printf("         true relative A-norm error: %.2e\n",
		a.ANormErr(x, xstar)/a.ANorm(xstar))

	// Cross-check with CG.
	xcg := make([]float64, n)
	cgRes, err := asyrgs.CG(a, xcg, b, asyrgs.CGOptions{
		Tol: 1e-6, MaxIter: 2000, Workers: workers,
	})
	if err != nil {
		log.Fatalf("CG did not converge: %+v", cgRes)
	}
	fmt.Printf("CG      (%2d workers): %3d iterations, residual %.2e\n",
		workers, cgRes.Iterations, cgRes.Residual)

	// The bound-optimal asynchronous step size for this matrix (Theorem 3).
	// The theorems define ρ on the unit-diagonal scaling.
	scaled, _, err := asyrgs.UnitDiagonalScale(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theory: ρ·n = %.2f, optimal β̃ for τ=%d is %.3f\n",
		asyrgs.Rho(scaled)*float64(n), workers, solver.OptimalBeta(workers))
}

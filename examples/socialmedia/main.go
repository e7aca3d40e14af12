// Social-media regression: the paper's motivating workload. Builds a
// synthetic term–document Gram matrix with the skewed row-size profile of
// the real 120k×120k system, solves a block of label-regression
// right-hand sides with synchronous RGS, asynchronous AsyRGS, and CG, and
// prints the Figure-1-style residual trajectories. Big-data tasks need low
// accuracy (~1e-2): the randomized sweeps get there first.
//
//	go run ./examples/socialmedia
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	asyrgs "github.com/asynclinalg/asyrgs"
)

func main() {
	const terms = 1200
	const labels = 8 // the paper solves 51 label columns together

	gram, termDoc := asyrgs.SocialGram(asyrgs.DefaultSocialGram(terms, 99))
	fmt.Println(asyrgs.DescribeMatrix("gram", gram))
	fmt.Println(asyrgs.DescribeMatrix("term-doc", termDoc))

	// Interference parameters of the unit-diagonal scaling, as in §9.
	scaled, _, err := asyrgs.UnitDiagonalScale(gram)
	if err != nil {
		log.Fatal(err)
	}
	n := float64(terms)
	fmt.Printf("ρ·n = %.1f, ρ₂·n = %.1f (paper's matrix: 231 and 8.9)\n\n",
		asyrgs.Rho(scaled)*n, asyrgs.Rho2(scaled)*n)

	b := asyrgs.MultiRHS(terms, labels, 100)
	workers := runtime.GOMAXPROCS(0)
	const sweeps = 30

	// Synchronous Randomized Gauss–Seidel trajectory.
	rgs, err := asyrgs.NewSolver(gram, asyrgs.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	xr := asyrgs.NewDense(terms, labels)
	rgsTraj := make([]float64, sweeps+1)
	rgsTraj[0] = rgs.ResidualDense(xr, b)
	rgsStart := time.Now()
	for s := 1; s <= sweeps; s++ {
		rgs.SweepsDense(xr, b, 1)
		rgsTraj[s] = rgs.ResidualDense(xr, b)
	}
	rgsTime := time.Since(rgsStart)

	// Asynchronous AsyRGS with the same direction stream.
	asy, err := asyrgs.NewSolver(gram, asyrgs.Options{Seed: 1, Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	xa := asyrgs.NewDense(terms, labels)
	asyStart := time.Now()
	asy.AsyncSweepsDense(xa, b, sweeps)
	asyTime := time.Since(asyStart)
	asyRes := asy.ResidualDense(xa, b)

	// CG trajectory on the same block.
	xc := asyrgs.NewDense(terms, labels)
	var cgTraj []float64
	cgStart := time.Now()
	asyrgs.CGDense(gram, xc, b, sweeps, workers, &cgTraj)
	cgTime := time.Since(cgStart)

	fmt.Printf("%-8s %-14s %-14s\n", "sweep", "RGS", "CG")
	for s := 0; s <= sweeps; s += 5 {
		fmt.Printf("%-8d %-14.3e %-14.3e\n", s, rgsTraj[s], cgTraj[s])
	}
	fmt.Printf("\nafter %d sweeps:\n", sweeps)
	fmt.Printf("  sync RGS : residual %.3e in %v (1 thread)\n", rgsTraj[sweeps], rgsTime.Round(time.Millisecond))
	fmt.Printf("  AsyRGS   : residual %.3e in %v (%d threads, no locks, no barriers)\n", asyRes, asyTime.Round(time.Millisecond), workers)
	fmt.Printf("  CG       : residual %.3e in %v (%d threads)\n", cgTraj[sweeps], cgTime.Round(time.Millisecond), workers)
	fmt.Println("\nthe big-data regime needs ~1e-2: note where each method crosses it.")
}

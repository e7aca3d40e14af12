package bench

import (
	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// Fig1Point is one sample of the Figure 1 series.
type Fig1Point struct {
	Sweep       int
	RGSResidual float64
	CGResidual  float64
}

// Fig1 reproduces Figure 1: the relative residual ‖AX−B‖_F/‖B‖_F of
// synchronous Randomized Gauss–Seidel (per sweep) and CG (per iteration)
// on the social-media Gram system with all right-hand sides solved
// together. The paper's shape: RGS drops faster for the first sweeps
// (the big-data regime needs ~1e-2), CG wins at high accuracy.
func (r *Runner) Fig1(sweeps int) []Fig1Point {
	r.Prepare()
	if sweeps <= 0 {
		sweeps = 200
	}
	a := r.Gram
	c := r.B.Cols

	// Randomized Gauss–Seidel, general diagonal (iteration (3)).
	rgs, err := core.New(a, core.Options{Seed: r.Cfg.Seed})
	if err != nil {
		panic(err)
	}
	xr := vec.NewDense(a.Rows, c)
	rgsRes := make([]float64, sweeps+1)
	rgsRes[0] = rgs.ResidualDense(xr, r.B)
	for s := 1; s <= sweeps; s++ {
		rgs.SweepsDense(xr, r.B, 1)
		rgsRes[s] = rgs.ResidualDense(xr, r.B)
	}

	// CG on the same block.
	xc := vec.NewDense(a.Rows, c)
	var cgHist []float64
	krylov.CGDense(a, xc, r.B, sweeps, 1, &cgHist)

	pts := make([]Fig1Point, sweeps+1)
	r.printf("\n== Figure 1: relative residual, Randomized G-S vs CG (n=%d, rhs=%d) ==\n", a.Rows, c)
	r.printf("%-8s %-14s %-14s\n", "sweep", "RGS", "CG")
	for s := 0; s <= sweeps; s++ {
		cg := cgHist[s]
		pts[s] = Fig1Point{Sweep: s, RGSResidual: rgsRes[s], CGResidual: cg}
		if s%10 == 0 || s == sweeps {
			r.printf("%-8d %-14.6e %-14.6e\n", s, rgsRes[s], cg)
		}
	}
	return pts
}

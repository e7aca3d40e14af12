package krylov

import (
	"context"
	"runtime"
	"sync"

	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// AsyncJacobi runs the classical asynchronous (chaotic-relaxation) Jacobi
// iteration: each worker repeatedly sweeps its own contiguous block of
// coordinates, computing x_i ← (b_i − Σ_{j≠i} A_ij x_j)/A_ii from whatever
// values of x are currently visible, with no barriers between sweeps.
// This is the method of the historical literature the paper revisits
// (Chazan–Miranker; evaluated by Bethune et al. and analysed by
// Hook–Dingle): deterministic coordinate order, convergence guaranteed
// only for contraction-type matrices (e.g. diagonally dominant), and a
// single slow worker starves its whole block.
//
// Each worker performs `sweeps` passes over its block; the total work is
// comparable to `sweeps` synchronous Jacobi sweeps. Writes are atomic so
// the ablation against AsyRGS isolates the direction strategy, not the
// memory model.
func AsyncJacobi(a *sparse.CSR, x, b []float64, sweeps, workers int) StationaryResult {
	return AsyncJacobiWithInv(context.Background(), a, InvDiag(a), x, b, sweeps, workers, nil)
}

// AsyncJacobiWithInv is AsyncJacobi with a precomputed D⁻¹ (see InvDiag),
// the prepared-state entry point: no per-call diagonal extraction. A
// non-nil throttle runs before every coordinate update, mirroring
// core.Options.Throttle, so the fault-injection experiments can starve a
// block and show the single-point-of-failure weakness that randomization
// removes. Each worker polls ctx before each of its sweeps and stops once
// ctx is done; the residual is then that of the partial run.
func AsyncJacobiWithInv(ctx context.Context, a *sparse.CSR, inv, x, b []float64, sweeps, workers int, throttle func(worker int, i int)) StationaryResult {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(inv) != n {
		panic("krylov: AsyncJacobi shape mismatch")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	// All workers start together (as real deployments launch them) and
	// yield the processor between sweeps; there are still no barriers or
	// locks during iteration, but tiny blocks cannot race through their
	// whole budget before the other goroutines are even scheduled.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			<-start
			for s := 0; s < sweeps && ctx.Err() == nil; s++ {
				for i := lo; i < hi; i++ {
					if throttle != nil {
						throttle(w, i)
					}
					if inv[i] == 0 {
						continue
					}
					dot := a.RowDotAtomic(i, x)
					// dot includes A_ii·x_i; the Jacobi/GS hybrid update
					// x_i += (b_i − A_i·x)/A_ii is the natural chaotic
					// relaxation step (within a block it is Gauss–Seidel,
					// across blocks Jacobi-with-stale-data).
					atomicfloat.Add(&x[i], (b[i]-dot)*inv[i])
				}
				runtime.Gosched()
			}
		}(w, lo, hi)
	}
	close(start)
	wg.Wait()
	normB := vec.Nrm2(b)
	if normB == 0 {
		normB = 1
	}
	return StationaryResult{Sweeps: sweeps, Residual: relResidual(a, x, b, make([]float64, len(b)), normB)}
}

package krylov

import (
	"context"
	"runtime"
	"sync"

	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// AsyncJacobi is the classical asynchronous (chaotic-relaxation) Jacobi
// iteration: each worker repeatedly sweeps its own contiguous block of
// coordinates, computing x_i ← (b_i − Σ_{j≠i} A_ij x_j)/A_ii from whatever
// values of x are currently visible, with no barriers between sweeps.
// This is the method of the historical literature the paper revisits
// (Chazan–Miranker; evaluated by Bethune et al. and analysed by
// Hook–Dingle): deterministic coordinate order, convergence guaranteed
// only for contraction-type matrices (e.g. diagonally dominant), and a
// single slow worker starves its whole block. Writes are atomic so the
// ablation against AsyRGS isolates the direction strategy, not the memory
// model.
type AsyncJacobi struct {
	scratchResidual
	ctx      context.Context
	inv      []float64
	workers  int
	throttle func(worker int, i int)
}

// NewAsyncJacobi readies the iteration on the initial guess in x, which
// every Step updates in place. A non-nil throttle runs before every
// coordinate update, mirroring core.Options.Throttle, so the
// fault-injection experiments can starve a block and show the
// single-point-of-failure weakness that randomization removes. Each
// worker polls ctx before each of its sweeps and stops once ctx is done.
func NewAsyncJacobi(ctx context.Context, a *sparse.CSR, inv, x, b []float64, workers int, throttle func(worker int, i int)) *AsyncJacobi {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(inv) != n {
		panic("krylov: AsyncJacobi shape mismatch")
	}
	return &AsyncJacobi{scratchResidual: newScratchResidual(a, x, b), ctx: ctx, inv: inv, workers: min(max(workers, 1), n), throttle: throttle}
}

// Step runs sweeps passes of every worker over its block, the work of
// sweeps synchronous Jacobi sweeps, with no barrier until all are done,
// and returns sweeps.
func (aj *AsyncJacobi) Step(sweeps int) int {
	a, x, b, n := aj.a, aj.x, aj.b, aj.a.Rows
	// All workers start together (as real deployments launch them) and
	// yield the processor between sweeps; there are still no barriers or
	// locks during iteration, but tiny blocks cannot race through their
	// whole budget before the other goroutines are even scheduled.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < aj.workers; w++ {
		lo := w * n / aj.workers
		hi := (w + 1) * n / aj.workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			<-start
			for s := 0; s < sweeps && aj.ctx.Err() == nil; s++ {
				for i := lo; i < hi; i++ {
					if aj.throttle != nil {
						aj.throttle(w, i)
					}
					dot := a.RowDotAtomic(i, x)
					// dot includes A_ii·x_i; the Jacobi/GS hybrid update
					// x_i += (b_i − A_i·x)/A_ii is the natural chaotic
					// relaxation step (within a block it is Gauss–Seidel,
					// across blocks Jacobi-with-stale-data).
					atomicfloat.Add(&x[i], (b[i]-dot)*aj.inv[i])
				}
				runtime.Gosched()
			}
		}(w, lo, hi)
	}
	close(start)
	wg.Wait()
	return sweeps
}

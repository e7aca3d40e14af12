package sparse

import (
	"math"
	"sync"
)

// This file is the batched (multi-vector) SpMV kernel of the Prepare/Solve
// pipeline: Y ← A·X for row-major dense blocks with the same worker and
// row-partitioning controls as MulVecPar. One SpMM streaming the matrix
// once replaces c independent SpMV passes, which is what makes batched
// residual evaluation over many right-hand sides O(nnz + n·c) instead of
// O(c·nnz) row-pointer traffic.

// MulDensePar computes Y ← A·X for row-major dense blocks (Y is Rows×c,
// X is Cols×c) with the given number of workers and row partitioning
// strategy. It is MulVecPar generalized to c right-hand sides: each
// sparse entry update streams a contiguous c-vector of X and Y.
// workers <= 1 (or a small row count) runs serially.
func (m *CSR) MulDensePar(ydata, xdata []float64, c, workers int, part Partition) {
	if c < 0 || len(xdata) != m.Cols*c || len(ydata) != m.Rows*c {
		panic("sparse: MulDensePar shape mismatch")
	}
	if c == 0 {
		return
	}
	// rowLoop is the one kernel body, shared by every partition: rows
	// start, start+stride, … below limit.
	rowLoop := func(start, stride, limit int) {
		for i := start; i < limit; i += stride {
			yrow := ydata[i*c : (i+1)*c]
			for j := range yrow {
				yrow[j] = 0
			}
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				xrow := xdata[m.ColIdx[k]*c : (m.ColIdx[k]+1)*c]
				Axpy(yrow, xrow, m.Vals[k])
			}
		}
	}
	rows := m.Rows
	if workers <= 1 || rows < 128 {
		rowLoop(0, 1, rows)
		return
	}
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	switch part {
	case PartitionRoundRobin:
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rowLoop(w, workers, rows)
			}(w)
		}
	default:
		for w := 0; w < workers; w++ {
			lo := w * rows / workers
			hi := (w + 1) * rows / workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				rowLoop(lo, 1, hi)
			}(lo, hi)
		}
	}
	wg.Wait()
}

// BatchRelResiduals returns the per-column relative residuals
// ‖b_j − A·x_j‖₂/‖b_j‖₂ (absolute when ‖b_j‖₂ = 0) for the row-major
// blocks B (Rows×c) and X (Cols×c), evaluating all columns with a single
// SpMM pass over the matrix. It is the convergence check of the batched
// Solve path: one call per CheckEvery sweeps covers every right-hand side
// in the batch.
func (m *CSR) BatchRelResiduals(bdata, xdata []float64, c, workers int) []float64 {
	if c < 0 || len(bdata) != m.Rows*c || len(xdata) != m.Cols*c {
		panic("sparse: BatchRelResiduals shape mismatch")
	}
	ax := make([]float64, m.Rows*c)
	m.MulDensePar(ax, xdata, c, workers, PartitionContiguous)
	num := make([]float64, c)
	den := make([]float64, c)
	for i := 0; i < m.Rows; i++ {
		brow := bdata[i*c : (i+1)*c]
		axrow := ax[i*c : (i+1)*c]
		for j, bv := range brow {
			d := bv - axrow[j]
			num[j] += d * d
			den[j] += bv * bv
		}
	}
	out := make([]float64, c)
	for j := range out {
		if den[j] == 0 {
			out[j] = math.Sqrt(num[j])
		} else {
			out[j] = math.Sqrt(num[j] / den[j])
		}
	}
	return out
}

package distmem

import "github.com/asynclinalg/asyrgs/internal/sparse"

// Partition is the coordinate-ownership map of a sharded run: worker i
// owns — and is the sole updater of — the contiguous coordinate block
// [Bounds[i], Bounds[i+1]). Bounds is strictly increasing with
// Bounds[0] = 0 and Bounds[len(Bounds)-1] = n, so every coordinate has
// exactly one owner and no block is empty.
type Partition struct {
	Bounds []int
}

// Workers returns the number of blocks.
func (p Partition) Workers() int { return len(p.Bounds) - 1 }

// Block returns worker i's half-open coordinate range [lo, hi).
func (p Partition) Block(i int) (lo, hi int) { return p.Bounds[i], p.Bounds[i+1] }

// NNZBalanced splits the rows of a into w contiguous blocks of roughly
// equal nonzero count, so ranks owning dense rows own fewer of them and
// per-round work stays balanced on skewed matrices (each restricted
// Gauss–Seidel step costs one RowDot, i.e. the row's nnz). Every block is
// non-empty. It panics unless 1 <= w <= a.Rows.
func NNZBalanced(a *sparse.CSR, w int) Partition {
	n := a.Rows
	if w < 1 || w > n {
		panic("distmem: NNZBalanced needs 1 <= workers <= rows")
	}
	bounds := make([]int, w+1)
	bounds[w] = n
	total := int64(a.RowPtr[n])
	prev := 0
	for i := 1; i < w; i++ {
		target := total * int64(i) / int64(w)
		b := prev + 1       // keep block i-1 non-empty
		maxB := n - (w - i) // leave one row for each remaining block
		for b < maxB && int64(a.RowPtr[b]) < target {
			b++
		}
		bounds[i] = b
		prev = b
	}
	return Partition{Bounds: bounds}
}

// Package sparse implements the sparse-matrix substrate of the solver
// library: a COO builder, compressed sparse row (CSR) and column (CSC)
// formats, serial and parallel sparse matrix–vector products, Gustavson
// SpGEMM (used for Gram matrices AᵀA), symmetric unit-diagonal scaling
// D^{-1/2} A D^{-1/2}, row statistics, and MatrixMarket I/O.
//
// The AsyRGS iteration touches one matrix row per step, so CSR with a
// contiguous row slice is the hot layout. The least-squares solver of §8
// additionally needs column access, provided by CSC.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Coord is one explicit entry of a matrix under construction.
type Coord struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format builder. Duplicate entries are summed when the
// matrix is compressed to CSR.
type COO struct {
	rows, cols int
	entries    []Coord
}

// NewCOO returns an empty builder for a rows×cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewCOO negative dimension %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Add appends entry (i,j) += v. Zero values are kept so that explicit
// structural zeros survive a round trip.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	c.entries = append(c.entries, Coord{i, j, v})
}

// AddSym appends (i,j) += v and, when i != j, (j,i) += v. It is the
// convenient builder for symmetric matrices stored fully.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// NNZ returns the number of accumulated (pre-deduplication) entries.
func (c *COO) NNZ() int { return len(c.entries) }

// ToCSR compresses the builder into CSR form, summing duplicates and
// sorting column indices within each row.
func (c *COO) ToCSR() *CSR {
	rowPtr := make([]int, c.rows+1)
	for _, e := range c.entries {
		rowPtr[e.Row+1]++
	}
	for i := 0; i < c.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, len(c.entries))
	vals := make([]float64, len(c.entries))
	next := make([]int, c.rows)
	copy(next, rowPtr[:c.rows])
	for _, e := range c.entries {
		p := next[e.Row]
		colIdx[p] = e.Col
		vals[p] = e.Val
		next[e.Row]++
	}
	return FromRowBuckets(c.rows, c.cols, rowPtr, colIdx, vals)
}

// FromRowBuckets assembles a CSR matrix from entries already grouped by
// row: row i's entries are colIdx[rowPtr[i]:rowPtr[i+1]] with values
// vals[rowPtr[i]:rowPtr[i+1]], in any column order and with duplicates
// allowed. Each row is sorted by column with pdqsort, and duplicates are
// then summed left to right, so the result's bits depend on the order
// the entries sit in their bucket. Columns must lie in [0, cols).
//
// The work is done in place: the returned matrix owns rowPtr, colIdx and
// vals, and the caller must not use them afterwards.
func FromRowBuckets(rows, cols int, rowPtr, colIdx []int, vals []float64) *CSR {
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || rowPtr[0] != 0 ||
		rowPtr[rows] != len(colIdx) || len(vals) != len(colIdx) {
		panic(fmt.Sprintf("sparse: FromRowBuckets bad buckets for %dx%d: len(rowPtr)=%d len(colIdx)=%d len(vals)=%d",
			rows, cols, len(rowPtr), len(colIdx), len(vals)))
	}
	type entry struct {
		col int
		val float64
	}
	longest := 0
	for i := 0; i < rows; i++ {
		longest = max(longest, rowPtr[i+1]-rowPtr[i])
	}
	scratch := make([]entry, longest)
	w, lo := 0, 0
	for i := 0; i < rows; i++ {
		hi := rowPtr[i+1]
		row := scratch[:hi-lo]
		for k := range row {
			row[k] = entry{colIdx[lo+k], vals[lo+k]}
		}
		slices.SortFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
		start := w
		for _, e := range row {
			if w > start && colIdx[w-1] == e.col {
				vals[w-1] += e.val
				continue
			}
			colIdx[w] = e.col
			vals[w] = e.val
			w++
		}
		rowPtr[i+1] = w
		lo = hi
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx[:w], Vals: vals[:w]}
}

// CSR is a compressed sparse row matrix. Row i occupies
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Vals[RowPtr[i]:RowPtr[i+1]], with
// column indices strictly increasing within a row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Row returns the column indices and values of row i, aliasing storage.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// At returns element (i,j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Vals:   append([]float64(nil), m.Vals...),
	}
	return c
}

// MulVec computes y ← A·x serially. len(x) must equal Cols and len(y) Rows.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch A=%dx%d len(x)=%d len(y)=%d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		y[i] = m.RowDot(i, x)
	}
}

// RowDot returns A_i · x, the inner product of row i with x, through the
// unrolled gather-dot kernel (see kernels.go).
func (m *CSR) RowDot(i int, x []float64) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return dot64(m.Vals[lo:hi], m.ColIdx[lo:hi], x)
}

// RowAxpy adds g·A_i into x (x[j] += g·a_ij over row i's entries) — the
// Kaczmarz-style scatter update, through the unrolled scatter kernel.
func (m *CSR) RowAxpy(i int, x []float64, g float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	scatter64(x, m.Vals[lo:hi], m.ColIdx[lo:hi], g)
}

// RowAxpyAtomic is RowAxpy with CAS adds for concurrent writers.
func (m *CSR) RowAxpyAtomic(i int, x []float64, g float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	scatter64Atomic(x, m.Vals[lo:hi], m.ColIdx[lo:hi], g)
}

// MulVecPar computes y ← A·x with the given number of workers; workers
// <= 1 runs serially. Rows are dealt round-robin: worker w computes rows
// w, w+P, w+2P, …. The paper partitions its CG products this way because
// the social-media Gram matrix has "very little to no structure", so
// contiguous blocks would be load-imbalanced wherever heavy rows cluster.
func (m *CSR) MulVecPar(y, x []float64, workers int) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVecPar shape mismatch")
	}
	if workers <= 1 || m.Rows < 256 {
		m.MulVec(y, x)
		return
	}
	if workers > runtime.GOMAXPROCS(0)*4 {
		workers = runtime.GOMAXPROCS(0) * 4
	}
	if workers > m.Rows {
		workers = m.Rows
	}
	var wg sync.WaitGroup
	// The stride is an argument, not a capture: a captured workers would
	// move to the heap and cost every call an allocation, the serial
	// path's included.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, stride int) {
			defer wg.Done()
			for i := w; i < m.Rows; i += stride {
				y[i] = m.RowDot(i, x)
			}
		}(w, workers)
	}
	wg.Wait()
}

// Transpose returns Aᵀ in CSR form.
func (m *CSR) Transpose() *CSR {
	colCount := make([]int, m.Cols+1)
	for _, j := range m.ColIdx {
		colCount[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		colCount[j+1] += colCount[j]
	}
	t := &CSR{Rows: m.Cols, Cols: m.Rows,
		RowPtr: colCount,
		ColIdx: make([]int, m.NNZ()),
		Vals:   make([]float64, m.NNZ()),
	}
	next := make([]int, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Vals[p] = m.Vals[k]
			next[j]++
		}
	}
	return t
}

// Diag returns the diagonal of the matrix as a dense vector (length
// min(Rows, Cols)); missing diagonal entries are zero.
func (m *CSR) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// IsSymmetric reports whether the matrix equals its transpose to within
// tol in absolute value on every entry.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		// Structures can legitimately differ when near-zero values appear
		// on one side only; fall through to the value comparison.
		_ = t
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if math.Abs(vals[k]-t.At(i, j)) > tol {
				return false
			}
		}
		tcols, tvals := t.Row(i)
		for k, j := range tcols {
			if math.Abs(tvals[k]-m.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// InfNorm returns ‖A‖∞ = max_i Σ_j |A_ij|.
func (m *CSR) InfNorm() float64 {
	var max float64
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += math.Abs(m.Vals[k])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// RowStats summarises the per-row non-zero counts; the paper's reference
// scenario is characterised by C1 = Min, C2 = Max with C2/C1 small, while
// its experimental matrix is deliberately skewed (Max ≫ Mean).
type RowStats struct {
	Min, Max int
	Mean     float64
}

// Stats returns the row non-zero statistics of the matrix.
func (m *CSR) Stats() RowStats {
	if m.Rows == 0 {
		return RowStats{}
	}
	st := RowStats{Min: m.RowPtr[1] - m.RowPtr[0]}
	total := 0
	for i := 0; i < m.Rows; i++ {
		nz := m.RowPtr[i+1] - m.RowPtr[i]
		total += nz
		if nz < st.Min {
			st.Min = nz
		}
		if nz > st.Max {
			st.Max = nz
		}
	}
	st.Mean = float64(total) / float64(m.Rows)
	return st
}

// Identity returns the n×n identity in CSR form.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Vals:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Vals[i] = 1
	}
	return m
}

// Dense expands the matrix to a row-major dense slice of length Rows*Cols.
// Intended for tests on small matrices.
func (m *CSR) Dense() []float64 {
	d := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i*m.Cols+m.ColIdx[k]] = m.Vals[k]
		}
	}
	return d
}

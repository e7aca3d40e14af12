package vec

import "fmt"

// Dense is a row-major dense matrix. The paper's experiment stores the
// 120,147×51 right-hand-side and solution blocks row-major "to improve
// locality"; Dense reproduces that layout: Row(i) is a contiguous slice of
// the Cols entries of row i, so per-coordinate solver updates touch one
// cache line per right-hand side block.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zero Rows×Cols row-major block.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: NewDense negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a slice aliasing the underlying storage.
func (d *Dense) Row(i int) []float64 {
	return d.Data[i*d.Cols : (i+1)*d.Cols]
}

// At returns element (i,j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i,j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Col copies column j into dst, which must have length Rows.
func (d *Dense) Col(dst []float64, j int) {
	if len(dst) != d.Rows {
		panic("vec: Dense.Col length mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		dst[i] = d.Data[i*d.Cols+j]
	}
}

// SetCol writes src (length Rows) into column j.
func (d *Dense) SetCol(j int, src []float64) {
	if len(src) != d.Rows {
		panic("vec: Dense.SetCol length mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		d.Data[i*d.Cols+j] = src[i]
	}
}

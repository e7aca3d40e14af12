package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
)

// randomishCSR builds a deterministic sparse matrix with nnzPerRow
// entries per row without external dependencies.
func randomishCSR(rows, cols, nnzPerRow int) *CSR {
	coo := NewCOO(rows, cols)
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for i := 0; i < rows; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := next(cols)
			coo.Add(i, j, 1+float64((i*31+j*7)%11)/10)
		}
	}
	return coo.ToCSR()
}

// TestMulDenseParSerialPathAllocsNothing: with one worker MulDensePar
// runs its kernel in the caller and allocates nothing. CGDense calls it
// once per iteration and BatchRelResiduals once per check.
func TestMulDenseParSerialPathAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	const rows, c = 96, 4
	m := randomishCSR(rows, rows, 5)
	x := make([]float64, rows*c)
	y := make([]float64, rows*c)
	if avg := testing.AllocsPerRun(20, func() { m.MulDensePar(y, x, c, 1) }); avg != 0 {
		t.Fatalf("MulDensePar at 1 worker allocated %.1f times per call, want 0", avg)
	}
}

func TestMulDenseParMatchesColumnwiseMulVec(t *testing.T) {
	const rows, cols, c = 300, 250, 7
	a := randomishCSR(rows, cols, 5)
	x := make([]float64, cols*c)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	for _, workers := range []int{1, 4, 64} { // 64: more workers than useful
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			y := make([]float64, rows*c)
			// Poison the output: the kernel must overwrite, not accumulate.
			for i := range y {
				y[i] = 1e9
			}
			a.MulDensePar(y, x, c, workers)
			xcol := make([]float64, cols)
			ycol := make([]float64, rows)
			for j := 0; j < c; j++ {
				for i := 0; i < cols; i++ {
					xcol[i] = x[i*c+j]
				}
				a.MulVec(ycol, xcol)
				for i := 0; i < rows; i++ {
					if d := math.Abs(y[i*c+j] - ycol[i]); d > 1e-12 {
						t.Fatalf("y[%d,%d] = %g, want %g", i, j, y[i*c+j], ycol[i])
					}
				}
			}
		})
	}
}

func TestMulDenseParZeroColumns(t *testing.T) {
	a := randomishCSR(10, 10, 2)
	a.MulDensePar(nil, nil, 0, 4) // must not panic
}

func TestBatchRelResiduals(t *testing.T) {
	const n, c = 200, 4
	a := randomishCSR(n, n, 4)
	x := make([]float64, n*c)
	for i := range x {
		x[i] = math.Cos(float64(i) / 3)
	}
	b := make([]float64, n*c)
	a.MulDensePar(b, x, c, 1)
	// Column 0: exact solution (residual 0). Column 2: perturbed b.
	for i := 0; i < n; i++ {
		b[i*c+2] += 0.5
	}
	res := a.BatchRelResiduals(b, x, c, 4)
	if len(res) != c {
		t.Fatalf("got %d residuals, want %d", len(res), c)
	}
	if res[0] > 1e-14 || res[1] > 1e-14 || res[3] > 1e-14 {
		t.Fatalf("exact columns must have zero residual: %v", res)
	}
	if res[2] < 1e-3 {
		t.Fatalf("perturbed column must have a visible residual: %v", res)
	}

	// Cross-check column 2 against the scalar path.
	xcol := make([]float64, n)
	bcol := make([]float64, n)
	for i := 0; i < n; i++ {
		xcol[i] = x[i*c+2]
		bcol[i] = b[i*c+2]
	}
	ax := make([]float64, n)
	a.MulVec(ax, xcol)
	var num, den float64
	for i := range ax {
		d := bcol[i] - ax[i]
		num += d * d
		den += bcol[i] * bcol[i]
	}
	want := math.Sqrt(num / den)
	if math.Abs(res[2]-want) > 1e-12 {
		t.Fatalf("batched residual %g != scalar residual %g", res[2], want)
	}
}

func TestBatchRelResidualsZeroRHS(t *testing.T) {
	a := Identity(8)
	x := make([]float64, 8)
	x[3] = 2
	b := make([]float64, 8) // ‖b‖ = 0: absolute residual
	res := a.BatchRelResiduals(b, x, 1, 1)
	if math.Abs(res[0]-2) > 1e-14 {
		t.Fatalf("zero-RHS residual should be absolute ‖Ax‖ = 2, got %v", res)
	}
}

// BenchmarkSpMM compares the batched kernel against c independent SpMV
// passes — the cost the Prepare/Solve batch path avoids.
func BenchmarkSpMM(b *testing.B) {
	const rows, cols, c = 4000, 4000, 16
	a := randomishCSR(rows, cols, 8)
	x := make([]float64, cols*c)
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	y := make([]float64, rows*c)
	b.Run("MulDensePar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulDensePar(y, x, c, 4)
		}
	})
	b.Run("ColumnwiseMulVec", func(b *testing.B) {
		xcol := make([]float64, cols)
		ycol := make([]float64, rows)
		for i := 0; i < b.N; i++ {
			for j := 0; j < c; j++ {
				for r := 0; r < cols; r++ {
					xcol[r] = x[r*c+j]
				}
				a.MulVec(ycol, xcol)
			}
		}
	})
}

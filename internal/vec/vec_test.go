package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v, want 0", got)
	}
}

func TestNrm2Overflow(t *testing.T) {
	// Naive sum-of-squares would overflow; the scaled loop must not.
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt(2)
	if got := Nrm2(x); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Nrm2 overflow-guard failed: got %v want %v", got, want)
	}
}

func TestNrm2Underflow(t *testing.T) {
	x := []float64{1e-200, 1e-200}
	want := 1e-200 * math.Sqrt(2)
	if got := Nrm2(x); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Nrm2 underflow-guard failed: got %v want %v", got, want)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, -4}, y)
	if y[0] != 7 || y[1] != -7 {
		t.Fatalf("Axpy = %v", y)
	}
	// alpha = 0 must be a no-op.
	Axpy(0, []float64{math.NaN(), math.NaN()}, y)
	if y[0] != 7 || y[1] != -7 {
		t.Fatalf("Axpy with zero alpha changed y: %v", y)
	}
}

func TestScalCopyFill(t *testing.T) {
	x := []float64{1, 2}
	Scal(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Scal = %v", x)
	}
	dst := make([]float64, 2)
	copy(dst, x)
	if dst[0] != 3 || dst[1] != 6 {
		t.Fatalf("copy = %v", dst)
	}
}

func TestSubAddMaxAbsSum(t *testing.T) {
	d := make([]float64, 2)
	Sub(d, []float64{5, 1}, []float64{2, 4})
	if d[0] != 3 || d[1] != -3 {
		t.Fatalf("Sub = %v", d)
	}
	Add(d, []float64{5, 1}, []float64{2, 4})
	if d[0] != 7 || d[1] != 5 {
		t.Fatalf("Add = %v", d)
	}
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestEqualRelErr(t *testing.T) {
	if !Equal([]float64{1, 2}, []float64{1 + 1e-12, 2}, 1e-9) {
		t.Fatal("Equal should tolerate 1e-12")
	}
	if Equal([]float64{1}, []float64{1, 2}, 1) {
		t.Fatal("Equal should reject length mismatch")
	}
	if got := RelErr([]float64{2, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-15 {
		t.Fatalf("RelErr = %v, want 1", got)
	}
	if got := RelErr([]float64{3, 4}, []float64{0, 0}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("RelErr with zero ref = %v, want 5", got)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := clip(xs[:n]), clip(ys[:n])
		lhs := math.Abs(Dot(x, y))
		rhs := Nrm2(x) * Nrm2(y)
		return lhs <= rhs*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := clip(xs[:n]), clip(ys[:n])
		s := make([]float64, n)
		Add(s, x, y)
		return Nrm2(s) <= (Nrm2(x)+Nrm2(y))*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// clip replaces non-finite quick-generated values so properties test
// algebra rather than NaN propagation.
func clip(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		// keep magnitudes sane so products do not overflow
		out[i] = math.Mod(v, 1e6)
	}
	return out
}

func TestDense(t *testing.T) {
	d := NewDense(3, 2)
	d.Set(1, 1, 5)
	if d.At(1, 1) != 5 {
		t.Fatalf("At = %v", d.At(1, 1))
	}
	row := d.Row(1)
	if len(row) != 2 || row[1] != 5 {
		t.Fatalf("Row = %v", row)
	}
	row[0] = 7 // aliasing
	if d.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
	col := make([]float64, 3)
	d.Col(col, 0)
	if col[1] != 7 {
		t.Fatalf("Col = %v", col)
	}
	d.SetCol(1, []float64{1, 2, 3})
	if d.At(2, 1) != 3 {
		t.Fatal("SetCol failed")
	}
	c := d.Clone()
	c.Set(0, 0, 99)
	if d.At(0, 0) == 99 {
		t.Fatal("Clone must deep-copy")
	}
	if got := d.FrobNorm(); got == 0 {
		t.Fatal("FrobNorm should be non-zero")
	}
}

func TestDenseShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense with negative dims should panic")
		}
	}()
	NewDense(-1, 2)
}

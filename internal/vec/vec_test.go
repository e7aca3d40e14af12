package vec

import (
	"encoding/binary"
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

// A NaN entry makes the norm NaN wherever it sits: the scale-0 exit must
// not drop a NaN that reached the sum of squares.
func TestNrm2NaN(t *testing.T) {
	nan := math.NaN()
	for _, x := range [][]float64{{nan, nan}, {0, nan}, {nan, 1}, {1, nan}, {math.Inf(1), nan}} {
		if got := Nrm2(x); !math.IsNaN(got) {
			t.Fatalf("Nrm2(%v) = %v, want NaN", x, got)
		}
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

// FuzzNrm2 decodes up to 8 float64 entries (little-endian bit patterns,
// so NaN payloads, infinities and subnormals all occur) and checks Nrm2
// against m·sqrt(Σ(v/m)²), m = max|v|: NaN if and only if an entry is
// NaN, +Inf when an entry is ±Inf and none is NaN, and otherwise within
// 1e-14 relative. A subnormal result keeps fewer than 53 significant
// bits, so one unit of the subnormal grid is allowed on top; a norm
// beyond the float range is +Inf on both sides.
func FuzzNrm2(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, v := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(enc(3, 4))
	f.Add(enc(nan, nan))
	f.Add(enc(0, nan))
	f.Add(enc(nan, 1))
	f.Add(enc(inf, inf))
	f.Add(enc(-inf, 2, inf))
	f.Add(enc(1e308, 1e308, -1e308))
	f.Add(enc(5e-324, 1e-310, 0, -2e-320))
	f.Add(enc())
	f.Fuzz(func(t *testing.T, data []byte) {
		x := make([]float64, min(len(data)/8, 8))
		var hasNaN, hasInf bool
		var m float64
		for i := range x {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			x[i] = v
			hasNaN = hasNaN || math.IsNaN(v)
			hasInf = hasInf || math.IsInf(v, 0)
			m = max(m, math.Abs(v))
		}
		got := Nrm2(x)
		switch {
		case hasNaN:
			if !math.IsNaN(got) {
				t.Fatalf("Nrm2(%v) = %v, want NaN", x, got)
			}
			return
		case hasInf:
			if !math.IsInf(got, 1) {
				t.Fatalf("Nrm2(%v) = %v, want +Inf", x, got)
			}
			return
		}
		var want float64
		if m > 0 {
			var s float64
			for _, v := range x {
				r := v / m
				s += r * r
			}
			want = m * math.Sqrt(s)
		}
		if math.IsInf(got, 1) || math.IsInf(want, 1) {
			// Within rounding of the float range one side may still be finite.
			if min(got, want) < math.MaxFloat64*(1-1e-14) {
				t.Fatalf("Nrm2(%v) = %v, want %v", x, got, want)
			}
			return
		}
		if math.IsNaN(got) || math.Abs(got-want) > 1e-14*want+math.SmallestNonzeroFloat64 {
			t.Fatalf("Nrm2(%v) = %v, want %v", x, got, want)
		}
	})
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

func TestSub(t *testing.T) {
	d := make([]float64, 2)
	Sub(d, []float64{5, 1}, []float64{2, 4})
	if d[0] != 3 || d[1] != -3 {
		t.Fatalf("Sub = %v", d)
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
		for i := range s {
			s[i] = x[i] + y[i]
		}
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
}

func TestDenseShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense with negative dims should panic")
		}
	}()
	NewDense(-1, 2)
}

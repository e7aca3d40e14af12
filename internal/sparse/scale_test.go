package sparse

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/asynclinalg/asyrgs/internal/rng"
)

func TestUnitDiagonalScaleBasics(t *testing.T) {
	b := small3()
	a, sc, err := UnitDiagonalScale(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Diag() {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("scaled diagonal entry %d = %v, want 1", i, v)
		}
	}
	if !a.IsSymmetric(1e-14) {
		t.Fatal("scaling must preserve symmetry")
	}
	// Check A = D·B·D entrywise.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := sc.D[i] * b.At(i, j) * sc.D[j]
			if math.Abs(a.At(i, j)-want) > 1e-14 {
				t.Fatalf("scaled (%d,%d) = %v want %v", i, j, a.At(i, j), want)
			}
		}
	}
}

func TestUnitDiagonalScaleSolutionEquivalence(t *testing.T) {
	// Solve By = z via the unit-diagonal system Ax = Dz, mapping back with
	// y = Dx — §3's "Non-Unit Diagonal" equivalence made executable.
	b := small3()
	a, sc, err := UnitDiagonalScale(b)
	if err != nil {
		t.Fatal(err)
	}
	z := []float64{1, 2, 3}
	dz := sc.RHSToUnit(z)

	// Tiny dense solves (3×3) done by hand via Cramer-free elimination:
	solve3 := func(m *CSR, rhs []float64) []float64 {
		d := m.Dense()
		x := append([]float64(nil), rhs...)
		// Gaussian elimination without pivoting (matrices are SPD).
		for c := 0; c < 3; c++ {
			for r := c + 1; r < 3; r++ {
				f := d[r*3+c] / d[c*3+c]
				for k := c; k < 3; k++ {
					d[r*3+k] -= f * d[c*3+k]
				}
				x[r] -= f * x[c]
			}
		}
		for r := 2; r >= 0; r-- {
			s := x[r]
			for k := r + 1; k < 3; k++ {
				s -= d[r*3+k] * x[k]
			}
			x[r] = s / d[r*3+r]
		}
		return x
	}
	y := solve3(b, z)
	x := solve3(a, dz)
	back := sc.SolutionFromUnit(x)
	for i := range y {
		if math.Abs(y[i]-back[i]) > 1e-12 {
			t.Fatalf("solution mapping broken: y=%v back=%v", y, back)
		}
	}
}

func TestUnitDiagonalScaleErrors(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -2)
	if _, _, err := UnitDiagonalScale(coo.ToCSR()); !errors.Is(err, ErrNonPositiveDiagonal) {
		t.Fatalf("want ErrNonPositiveDiagonal, got %v", err)
	}
	rect := NewCOO(2, 3).ToCSR()
	if _, _, err := UnitDiagonalScale(rect); err == nil {
		t.Fatal("rectangular matrix must be rejected")
	}
}

func TestScalingANormEquivalenceProperty(t *testing.T) {
	// ‖x‖_A == ‖y‖_B when y = Dx — the invariant that lets the paper
	// analyze only the unit-diagonal case.
	f := func(seed uint64) bool {
		g := rng.NewSequential(seed)
		// Random SPD-ish: diagonally dominant symmetric.
		n := 8
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 4+g.Float64())
			j := g.Intn(n)
			if j != i {
				coo.AddSym(i, j, g.Float64()-0.5)
			}
		}
		b := coo.ToCSR()
		a, sc, err := UnitDiagonalScale(b)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Float64() - 0.5
		}
		y := sc.SolutionFromUnit(x) // y = Dx
		return math.Abs(a.ANorm(x)-b.ANorm(y)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCSCBasics(t *testing.T) {
	m := randomCSR(10, 6, 0.3, 9)
	c := m.ToCSC()
	if c.NNZ() != m.NNZ() {
		t.Fatal("CSC changed nnz")
	}
	for j := 0; j < 6; j++ {
		rows, vals := c.Col(j)
		for k, i := range rows {
			if m.At(i, j) != vals[k] {
				t.Fatalf("CSC col %d row %d mismatch", j, i)
			}
		}
		var want float64
		for k := range vals {
			want += vals[k] * vals[k]
		}
		if math.Abs(c.ColNorm2Sq(j)-want) > 1e-14 {
			t.Fatal("ColNorm2Sq mismatch")
		}
	}
}

func TestCSCMulTransVec(t *testing.T) {
	m := randomCSR(12, 7, 0.3, 10)
	c := m.ToCSC()
	at := m.Transpose()
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.3
	}
	got := make([]float64, 7)
	c.MulTransVec(got, x)
	want := make([]float64, 7)
	at.MulVec(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulTransVec[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestMMRoundTripGeneral(t *testing.T) {
	m := randomCSR(9, 5, 0.4, 11)
	var buf bytes.Buffer
	if err := WriteMM(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
		t.Fatalf("round trip changed shape: %dx%d nnz=%d", back.Rows, back.Cols, back.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if back.At(i, j) != vals[k] {
				t.Fatalf("round trip value (%d,%d)", i, j)
			}
		}
	}
}

func TestMMRoundTripSymmetric(t *testing.T) {
	m := small3()
	var buf bytes.Buffer
	if err := WriteMMSymmetric(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "symmetric") {
		t.Fatal("header should say symmetric")
	}
	back, err := ReadMM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(back.At(i, j)-m.At(i, j)) > 1e-15 {
				t.Fatalf("symmetric round trip (%d,%d): %v vs %v", i, j, back.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestMMPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 2
2 1
3 3
`
	m, err := ReadMM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 1 || m.At(0, 1) != 1 || m.At(2, 2) != 1 {
		t.Fatal("pattern symmetric parse wrong")
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (mirrored)", m.NNZ())
	}
}

func TestMMErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // truncated
		"not a header\n",
	}
	for i, in := range cases {
		if _, err := ReadMM(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWriteMMSymmetricRejectsRectangular(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMMSymmetric(&buf, NewCOO(2, 3).ToCSR()); err == nil {
		t.Fatal("rectangular symmetric write should fail")
	}
}

func TestMMVectorArrayRoundTrip(t *testing.T) {
	v := []float64{1.5, -2.25, 0, 3e-7}
	var buf bytes.Buffer
	if err := WriteMMVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMMVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(v) {
		t.Fatalf("length %d, want %d", len(back), len(v))
	}
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("entry %d: %v vs %v", i, back[i], v[i])
		}
	}
}

func TestMMVectorCoordinateCompat(t *testing.T) {
	// A coordinate n×1 matrix written by WriteMM must read as a vector.
	coo := NewCOO(4, 1)
	coo.Add(1, 0, 5)
	coo.Add(3, 0, -2)
	var buf bytes.Buffer
	if err := WriteMM(&buf, coo.ToCSR()); err != nil {
		t.Fatal(err)
	}
	v, err := ReadMMVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 5, 0, -2}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("entry %d: %v vs %v", i, v[i], want[i])
		}
	}
}

func TestMMVectorErrors(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n", // not a vector
		"%%MatrixMarket matrix array real general\n3 1\n1\n2\n",       // truncated
		"%%MatrixMarket matrix array complex general\n1 1\n1 0\n",     // bad field
		"junk\n",
	}
	for i, in := range cases {
		if _, err := ReadMMVector(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

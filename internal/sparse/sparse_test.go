package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
)

// small3 returns a fixed 3×3 SPD test matrix.
func small3() *CSR {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 4)
	coo.AddSym(0, 1, 1)
	coo.Add(1, 1, 3)
	coo.AddSym(1, 2, -1)
	coo.Add(2, 2, 5)
	return coo.ToCSR()
}

// randomCSR builds a random rows×cols matrix with roughly density·rows·cols
// entries.
func randomCSR(rows, cols int, density float64, seed uint64) *CSR {
	g := rng.NewSequential(seed)
	coo := NewCOO(rows, cols)
	target := int(density * float64(rows) * float64(cols))
	for k := 0; k < target; k++ {
		coo.Add(g.Intn(rows), g.Intn(cols), 2*g.Float64()-1)
	}
	return coo.ToCSR()
}

func TestCOOToCSRSortsAndDedups(t *testing.T) {
	coo := NewCOO(2, 3)
	coo.Add(0, 2, 1)
	coo.Add(0, 0, 2)
	coo.Add(0, 2, 3) // duplicate, must sum to 4
	coo.Add(1, 1, 5)
	m := coo.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("row 0 cols = %v", cols)
	}
	if vals[0] != 2 || vals[1] != 4 {
		t.Fatalf("row 0 vals = %v", vals)
	}
	if m.At(1, 1) != 5 || m.At(1, 0) != 0 {
		t.Fatal("At lookup wrong")
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add should panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

// sortSliceToCSR is the reference COO compression: a stable scatter into
// row buckets, then per row a sort by column and a left-to-right sum of
// duplicates. With sort.Slice as sortRow it fixes the bits ToCSR must
// produce. pdqsort is unstable above 12 elements, so the order duplicates
// are summed in, and hence the bits, follow the sort's exact swap
// sequence; passing a stable sort shows the comparison can tell two
// sorts apart.
func sortSliceToCSR(rows, cols int, entries []Coord, sortRow func(row []Coord)) *CSR {
	buckets := make([][]Coord, rows)
	for _, e := range entries {
		buckets[e.Row] = append(buckets[e.Row], e)
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i, row := range buckets {
		sortRow(row)
		start := len(m.ColIdx)
		for _, e := range row {
			if w := len(m.ColIdx); w > start && m.ColIdx[w-1] == e.Col {
				m.Vals[w-1] += e.Val
				continue
			}
			m.ColIdx = append(m.ColIdx, e.Col)
			m.Vals = append(m.Vals, e.Val)
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// bitsEqual reports whether a and b have the same structure and value bits.
func bitsEqual(a, b *CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestFromRowBucketsMatchesSortSlice(t *testing.T) {
	bySlice := func(row []Coord) { sort.Slice(row, func(a, b int) bool { return row[a].Col < row[b].Col }) }
	byStable := func(row []Coord) { sort.SliceStable(row, func(a, b int) bool { return row[a].Col < row[b].Col }) }
	g := rng.NewSequential(11)
	stableDiffers := false
	for trial := 0; trial < 60; trial++ {
		// Up to 200 entries per row over at most 24 columns: most entries
		// are duplicates, and rows run well past the 12-element
		// insertion-sort cutoff. Values span many binades, so a different
		// summation order changes the bits.
		rows, cols := 1+g.Intn(20), 1+g.Intn(24)
		coo := NewCOO(rows, cols)
		for k := g.Intn(200 * rows); k > 0; k-- {
			coo.Add(g.Intn(rows), g.Intn(cols), (2*g.Float64()-1)*math.Ldexp(1, g.Intn(60)-30))
		}
		want := sortSliceToCSR(rows, cols, coo.entries, bySlice)
		if got := coo.ToCSR(); !bitsEqual(got, want) {
			t.Fatalf("trial %d (%dx%d, %d entries): ToCSR differs from the sort.Slice assembly", trial, rows, cols, coo.NNZ())
		}
		if !bitsEqual(sortSliceToCSR(rows, cols, coo.entries, byStable), want) {
			stableDiffers = true
		}
	}
	if !stableDiffers {
		t.Fatal("a stable sort matched sort.Slice on every trial: the inputs do not exercise duplicate order")
	}
}

func TestFromRowBucketsInPlace(t *testing.T) {
	// Two rows, the first with a duplicate: the constructor compacts the
	// caller's arrays in place and returns them.
	rowPtr := []int{0, 3, 4}
	colIdx := []int{2, 0, 2, 1}
	vals := []float64{1, 2, 3, 4}
	m := FromRowBuckets(2, 3, rowPtr, colIdx, vals)
	if !slices.Equal(m.RowPtr, []int{0, 2, 3}) || !slices.Equal(m.ColIdx, []int{0, 2, 1}) || !slices.Equal(m.Vals, []float64{2, 4, 4}) {
		t.Fatalf("got RowPtr %v ColIdx %v Vals %v", m.RowPtr, m.ColIdx, m.Vals)
	}
	if &m.ColIdx[0] != &colIdx[0] || &m.Vals[0] != &vals[0] || &m.RowPtr[0] != &rowPtr[0] {
		t.Fatal("FromRowBuckets copied its input instead of working in place")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inconsistent buckets should panic")
		}
	}()
	FromRowBuckets(2, 3, []int{0, 1, 3}, []int{0, 1}, []float64{1, 2})
}

func TestMulVecAgainstDense(t *testing.T) {
	m := randomCSR(17, 13, 0.3, 1)
	d := m.Dense()
	x := make([]float64, 13)
	for i := range x {
		x[i] = float64(i) - 6
	}
	y := make([]float64, 17)
	m.MulVec(y, x)
	for i := 0; i < 17; i++ {
		var want float64
		for j := 0; j < 13; j++ {
			want += d[i*13+j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("MulVec row %d: got %v want %v", i, y[i], want)
		}
	}
}

// TestMulVecParMatchesSerial: the round-robin parallel product computes
// every row with the same kernel as MulVec, so it matches it bit for bit
// at any worker count, including more workers than the clamp allows.
func TestMulVecParMatchesSerial(t *testing.T) {
	m := randomCSR(500, 500, 0.02, 2)
	x := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, 500)
	m.MulVec(want, x)
	for _, workers := range []int{1, 2, 3, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := make([]float64, 500)
			for i := range got {
				got[i] = math.NaN() // every row must be written
			}
			m.MulVecPar(got, x, workers)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestMulVecParSerialPathAllocsNothing: with one worker, or under 256
// rows, MulVecPar is MulVec and allocates nothing. cg, fcg and jacobi
// call it once per iteration.
func TestMulVecParSerialPathAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, rows := range []int{96, 500} {
		m := randomCSR(rows, rows, 0.02, 2)
		x := make([]float64, rows)
		y := make([]float64, rows)
		if avg := testing.AllocsPerRun(20, func() { m.MulVecPar(y, x, 1) }); avg != 0 {
			t.Fatalf("rows %d: MulVecPar at 1 worker allocated %.1f times per call, want 0", rows, avg)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomCSR(20, 35, 0.15, 4)
	tt := m.Transpose().Transpose()
	if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
		t.Fatal("transpose changed shape or nnz")
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if tt.At(i, j) != vals[k] {
				t.Fatalf("(AT)T differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeDotIdentity(t *testing.T) {
	// (Ax, y) == (x, ATy) — the adjoint identity, on random data.
	f := func(seed uint64) bool {
		m := randomCSR(15, 12, 0.25, seed)
		at := m.Transpose()
		g := rng.NewSequential(seed ^ 0xabc)
		x := make([]float64, 12)
		y := make([]float64, 15)
		for i := range x {
			x[i] = g.Float64() - 0.5
		}
		for i := range y {
			y[i] = g.Float64() - 0.5
		}
		ax := make([]float64, 15)
		m.MulVec(ax, x)
		aty := make([]float64, 12)
		at.MulVec(aty, y)
		var lhs, rhs float64
		for i := range y {
			lhs += ax[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAgainstDense(t *testing.T) {
	a := randomCSR(9, 7, 0.4, 5)
	b := randomCSR(7, 11, 0.4, 6)
	c := Mul(a, b)
	ad, bd := a.Dense(), b.Dense()
	for i := 0; i < 9; i++ {
		for j := 0; j < 11; j++ {
			var want float64
			for k := 0; k < 7; k++ {
				want += ad[i*7+k] * bd[k*11+j]
			}
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("Mul at (%d,%d): got %v want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestGramIsSymmetricPSD(t *testing.T) {
	a := randomCSR(40, 25, 0.2, 7)
	g := Gram(a)
	if g.Rows != 25 || g.Cols != 25 {
		t.Fatalf("Gram shape %dx%d", g.Rows, g.Cols)
	}
	if !g.IsSymmetric(1e-12) {
		t.Fatal("Gram must be symmetric")
	}
	// PSD: xᵀ(AᵀA)x = ‖Ax‖² ≥ 0 for random x.
	rg := rng.NewSequential(8)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 25)
		for i := range x {
			x[i] = rg.Float64() - 0.5
		}
		if q := g.QuadForm(x); q < -1e-10 {
			t.Fatalf("Gram not PSD: quadform = %v", q)
		}
	}
}

func TestGramEqualsTransposeIdentityProperty(t *testing.T) {
	// (AᵀA)x == Aᵀ(Ax) as operators.
	f := func(seed uint64) bool {
		a := randomCSR(20, 14, 0.25, seed)
		g := Gram(a)
		at := a.Transpose()
		v := make([]float64, 14)
		rg := rng.NewSequential(seed)
		for i := range v {
			v[i] = rg.Float64() - 0.5
		}
		gv := make([]float64, 14)
		g.MulVec(gv, v)
		av := make([]float64, 20)
		a.MulVec(av, v)
		atav := make([]float64, 14)
		at.MulVec(atav, av)
		for i := range gv {
			if math.Abs(gv[i]-atav[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagAndStats(t *testing.T) {
	m := small3()
	d := m.Diag()
	if d[0] != 4 || d[1] != 3 || d[2] != 5 {
		t.Fatalf("Diag = %v", d)
	}
	st := m.Stats()
	if st.Min != 2 || st.Max != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	if math.Abs(st.Mean-7.0/3) > 1e-12 {
		t.Fatalf("Stats.Mean = %v", st.Mean)
	}
}

func TestInfNorm(t *testing.T) {
	m := small3()
	if got := m.InfNorm(); got != 6 { // row 2: 1+3+... wait row 1: |1|+|3|+|-1| = 5; row 0: 4+1=5; row 2: 1+5=6
		t.Fatalf("InfNorm = %v, want 6", got)
	}
}

func TestIdentityAndPrune(t *testing.T) {
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	id.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("Identity.MulVec must be a copy")
		}
	}
}

func TestRowDot(t *testing.T) {
	m := small3()
	x := []float64{1, 2, 3}
	if got := m.RowDot(1, x); got != 1*1+3*2-1*3 {
		t.Fatalf("RowDot = %v, want 4", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := small3()
	c := m.Clone()
	c.Vals[0] = 99
	if m.Vals[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !small3().IsSymmetric(0) {
		t.Fatal("small3 is symmetric")
	}
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1)
	if coo.ToCSR().IsSymmetric(1e-15) {
		t.Fatal("strictly upper matrix is not symmetric")
	}
	if randomCSR(3, 4, 0.5, 1).IsSymmetric(1) {
		t.Fatal("non-square can never be symmetric")
	}
}

func TestQuadFormMatchesDense(t *testing.T) {
	m := small3()
	x := []float64{1, -2, 0.5}
	ax := make([]float64, 3)
	m.MulVec(ax, x)
	var want float64
	for i := range x {
		want += x[i] * ax[i]
	}
	if got := m.QuadForm(x); math.Abs(got-want) > 1e-14 {
		t.Fatalf("QuadForm = %v, want %v", got, want)
	}
	if got := m.ANorm(x); math.Abs(got-math.Sqrt(want)) > 1e-14 {
		t.Fatalf("ANorm = %v", got)
	}
	if got := m.ANormErr(x, x); got != 0 {
		t.Fatalf("ANormErr(x,x) = %v", got)
	}
}

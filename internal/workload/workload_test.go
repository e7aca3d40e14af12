package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

func TestSocialGramShape(t *testing.T) {
	opts := DefaultSocialGram(200, 1)
	gram, termDoc := SocialGram(opts)
	if gram.Rows != 200 || gram.Cols != 200 {
		t.Fatalf("Gram shape %dx%d", gram.Rows, gram.Cols)
	}
	if termDoc.Rows != opts.Docs || termDoc.Cols != 200 {
		t.Fatalf("term-doc shape %dx%d", termDoc.Rows, termDoc.Cols)
	}
	if !gram.IsSymmetric(1e-10) {
		t.Fatal("Gram matrix must be symmetric")
	}
	for i, d := range gram.Diag() {
		if d <= 0 {
			t.Fatalf("diagonal %d = %v not positive", i, d)
		}
	}
}

func TestSocialGramIsPositiveDefinite(t *testing.T) {
	gram, _ := SocialGram(DefaultSocialGram(100, 2))
	g := rng.NewSequential(3)
	for trial := 0; trial < 30; trial++ {
		x := make([]float64, 100)
		for i := range x {
			x[i] = g.Float64() - 0.5
		}
		if q := gram.QuadForm(x); q <= 0 {
			t.Fatalf("quadratic form %v not positive", q)
		}
	}
}

func TestSocialGramRowSkew(t *testing.T) {
	// The defining property of the paper's matrix: max ≫ mean ≫ min row
	// sizes (117,182 / 1,439 / 1 in the paper).
	gram, _ := SocialGram(DefaultSocialGram(400, 4))
	st := gram.Stats()
	if float64(st.Max) < 3*st.Mean {
		t.Fatalf("row sizes not skewed enough: max=%d mean=%.1f", st.Max, st.Mean)
	}
	if st.Min > int(st.Mean/2)+1 {
		t.Fatalf("min row size %d too close to mean %.1f", st.Min, st.Mean)
	}
}

func TestSocialGramDeterministic(t *testing.T) {
	a1, _ := SocialGram(DefaultSocialGram(80, 7))
	a2, _ := SocialGram(DefaultSocialGram(80, 7))
	if a1.NNZ() != a2.NNZ() {
		t.Fatal("same seed must give the same matrix")
	}
	for k := range a1.Vals {
		if a1.Vals[k] != a2.Vals[k] || a1.ColIdx[k] != a2.ColIdx[k] {
			t.Fatal("same seed must give identical entries")
		}
	}
	a3, _ := SocialGram(DefaultSocialGram(80, 8))
	if a3.NNZ() == a1.NNZ() {
		same := true
		for k := range a1.Vals {
			if a1.Vals[k] != a3.Vals[k] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds should differ")
		}
	}
}

func TestSocialGramMatchesExplicitGramPlusRidge(t *testing.T) {
	opts := DefaultSocialGram(60, 9)
	gram, termDoc := SocialGram(opts)
	explicit := sparse.Gram(termDoc)
	// gram = explicit + ridge·I: off-diagonals must agree exactly.
	for i := 0; i < 60; i++ {
		cols, vals := explicit.Row(i)
		for k, j := range cols {
			if i == j {
				continue
			}
			if math.Abs(gram.At(i, j)-vals[k]) > 1e-12 {
				t.Fatalf("off-diagonal (%d,%d) differs", i, j)
			}
		}
		if gram.At(i, i) <= explicit.At(i, i) {
			t.Fatalf("diagonal %d must include a positive ridge", i)
		}
	}
}

func TestLaplacian2DStructure(t *testing.T) {
	a := Laplacian2D(4, 5)
	if a.Rows != 20 || !a.IsSymmetric(0) {
		t.Fatal("bad 2D Laplacian")
	}
	// Interior row: diagonal 4 with four −1 neighbours → zero row sum;
	// corner rows sum to 2.
	rowSum := func(i int) float64 {
		_, vals := a.Row(i)
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	}
	if rowSum(0) != 2 { // corner: two neighbours
		t.Fatalf("corner row sum %v, want 2", rowSum(0))
	}
	interior := 1*5 + 2 // (1,2) interior for 4x5
	if rowSum(interior) != 0 {
		t.Fatalf("interior row sum %v, want 0", rowSum(interior))
	}
}

func TestLaplacian3DStructure(t *testing.T) {
	a := Laplacian3D(3, 3, 3)
	if a.Rows != 27 || !a.IsSymmetric(0) {
		t.Fatal("bad 3D Laplacian")
	}
	center := (1*3+1)*3 + 1
	cols, vals := a.Row(center)
	if len(cols) != 7 {
		t.Fatalf("center row has %d entries, want 7", len(cols))
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	if s != 0 {
		t.Fatalf("center row sum %v", s)
	}
}

func TestRandomSPDDominance(t *testing.T) {
	a := RandomSPD(50, 6, 1.5, 10)
	if !a.IsSymmetric(1e-12) {
		t.Fatal("RandomSPD must be symmetric")
	}
	for i := 0; i < 50; i++ {
		cols, vals := a.Row(i)
		var off, diag float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not strictly dominant: diag %v off %v", i, diag, off)
		}
	}
}

func TestRandomSPDRejectsBadDominance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dominance <= 1 must panic")
		}
	}()
	RandomSPD(5, 2, 1.0, 1)
}

func TestRandomOverdeterminedColumns(t *testing.T) {
	a := RandomOverdetermined(40, 15, 3, 11)
	csc := a.ToCSC()
	for j := 0; j < 15; j++ {
		if csc.ColNorm2Sq(j) == 0 {
			t.Fatalf("column %d is empty", j)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rows < cols must panic")
		}
	}()
	RandomOverdetermined(3, 5, 2, 1)
}

func TestRHSForSolutionConsistency(t *testing.T) {
	a := RandomSPD(30, 4, 1.5, 12)
	b, xstar := RHSForSolution(a, 13)
	ax := make([]float64, 30)
	a.MulVec(ax, xstar)
	for i := range b {
		if b[i] != ax[i] {
			t.Fatal("b must equal A·x* exactly")
		}
	}
}

func TestRandomRHSAndMultiRHS(t *testing.T) {
	b := RandomRHS(100, 14)
	for _, v := range b {
		if v < -1 || v > 1 {
			t.Fatalf("RHS entry %v outside [-1,1]", v)
		}
	}
	d := MultiRHS(10, 3, 15)
	if d.Rows != 10 || d.Cols != 3 {
		t.Fatal("MultiRHS shape")
	}
	if vec.Nrm2(d.Data) == 0 {
		t.Fatal("MultiRHS should be non-zero")
	}
}

func TestDescribe(t *testing.T) {
	a := Laplacian2D(3, 3)
	s := Describe("lap", a)
	if !strings.Contains(s, "lap") || !strings.Contains(s, "9 x 9") {
		t.Fatalf("Describe = %q", s)
	}
}

func TestLaplacianEigenvaluesPositiveProperty(t *testing.T) {
	// Dirichlet Laplacians are SPD: random quadratic forms are positive.
	f := func(seed uint64, size uint8) bool {
		m := int(size%6) + 2
		a := Laplacian2D(m, m)
		g := rng.NewSequential(seed)
		x := make([]float64, m*m)
		nonzero := false
		for i := range x {
			x[i] = g.Float64() - 0.5
			if x[i] != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		return a.QuadForm(x) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

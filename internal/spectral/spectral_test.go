package spectral

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// diagMatrix builds diag(values) in CSR.
func diagMatrix(values []float64) *sparse.CSR {
	n := len(values)
	coo := sparse.NewCOO(n, n)
	for i, v := range values {
		coo.Add(i, i, v)
	}
	return coo.ToCSR()
}

func TestGershgorinContainsSpectrum(t *testing.T) {
	a := diagMatrix([]float64{2, 5, -1})
	lo, hi := Gershgorin(a)
	if lo > -1 || hi < 5 {
		t.Fatalf("Gershgorin [%v,%v] must contain [-1,5]", lo, hi)
	}
}

// laplacian1DEigen returns the exact eigenvalues of the 1D Dirichlet
// Laplacian tridiag(-1,2,-1) of size n: 2−2cos(kπ/(n+1)).
func laplacian1DEigen(n int) (min, max float64) {
	min = 2 - 2*math.Cos(math.Pi/float64(n+1))
	max = 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	return
}

func laplacian1D(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

func TestLanczosOn1DLaplacian(t *testing.T) {
	n := 64
	a := laplacian1D(n)
	wantMin, wantMax := laplacian1DEigen(n)
	est := Lanczos(a, n, 3) // full Lanczos with reorthogonalization: exact
	if math.Abs(est.LambdaMax-wantMax) > 1e-6*wantMax {
		t.Fatalf("λmax = %v, want %v", est.LambdaMax, wantMax)
	}
	if math.Abs(est.LambdaMin-wantMin) > 1e-6 {
		t.Fatalf("λmin = %v, want %v", est.LambdaMin, wantMin)
	}
	wantKappa := wantMax / wantMin
	if math.Abs(est.Cond-wantKappa) > 1e-4*wantKappa {
		t.Fatalf("κ = %v, want %v", est.Cond, wantKappa)
	}
}

func TestLanczosOn2DLaplacian(t *testing.T) {
	// Exact eigenvalues of the 2D 5-point Laplacian on an m×m grid:
	// 4 − 2cos(iπ/(m+1)) − 2cos(jπ/(m+1)).
	m := 10
	a := workload.Laplacian2D(m, m)
	c := func(k int) float64 { return 2 * math.Cos(float64(k)*math.Pi/float64(m+1)) }
	wantMin := 4 - c(1) - c(1)
	wantMax := 4 - c(m) - c(m)
	est := Lanczos(a, m*m, 5)
	if math.Abs(est.LambdaMin-wantMin) > 1e-6 {
		t.Fatalf("λmin = %v, want %v", est.LambdaMin, wantMin)
	}
	if math.Abs(est.LambdaMax-wantMax) > 1e-6 {
		t.Fatalf("λmax = %v, want %v", est.LambdaMax, wantMax)
	}
}

func TestLanczosPartialBracketsSpectrum(t *testing.T) {
	// A truncated Lanczos run must bracket the spectrum from inside:
	// λmin ≤ ritzMin and ritzMax ≤ λmax (up to rounding).
	n := 100
	a := laplacian1D(n)
	wantMin, wantMax := laplacian1DEigen(n)
	est := Lanczos(a, 30, 7)
	if est.LambdaMin < wantMin-1e-9 {
		t.Fatalf("ritz min %v below λmin %v", est.LambdaMin, wantMin)
	}
	if est.LambdaMax > wantMax+1e-9 {
		t.Fatalf("ritz max %v above λmax %v", est.LambdaMax, wantMax)
	}
}

func TestEstimateSPD(t *testing.T) {
	a := workload.Laplacian2D(8, 8)
	est := EstimateSPD(a, 64, 11)
	if est.LambdaMin <= 0 || est.LambdaMax <= est.LambdaMin {
		t.Fatalf("bad estimate %+v", est)
	}
	lo, hi := Gershgorin(a)
	if est.LambdaMax > hi+1e-9 || est.LambdaMin < lo-1e-9 {
		t.Fatalf("estimate %+v escapes Gershgorin [%v,%v]", est, lo, hi)
	}
}

func TestSturmCountMonotonic(t *testing.T) {
	alpha := []float64{2, 2, 2, 2}
	beta := []float64{-1, -1, -1}
	prev := 0
	for x := -1.0; x < 5.0; x += 0.1 {
		c := sturmCount(alpha, beta, x)
		if c < prev {
			t.Fatalf("Sturm count must be nondecreasing in x; dropped to %d at %v", c, x)
		}
		prev = c
	}
	if sturmCount(alpha, beta, -1) != 0 {
		t.Fatal("no eigenvalue below -1")
	}
	if sturmCount(alpha, beta, 5) != 4 {
		t.Fatal("all 4 eigenvalues below 5")
	}
}

func TestTridiagExtremesKnown(t *testing.T) {
	// tridiag(-1,2,-1) of size 4: eigenvalues 2−2cos(kπ/5).
	alpha := []float64{2, 2, 2, 2}
	beta := []float64{-1, -1, -1}
	lo, hi := tridiagExtremes(alpha, beta)
	wantLo := 2 - 2*math.Cos(math.Pi/5)
	wantHi := 2 - 2*math.Cos(4*math.Pi/5)
	if math.Abs(lo-wantLo) > 1e-10 || math.Abs(hi-wantHi) > 1e-10 {
		t.Fatalf("extremes [%v,%v], want [%v,%v]", lo, hi, wantLo, wantHi)
	}
}

func TestTridiagExtremesDegenerate(t *testing.T) {
	if lo, hi := tridiagExtremes(nil, nil); lo != 0 || hi != 0 {
		t.Fatal("empty tridiag should be (0,0)")
	}
	if lo, hi := tridiagExtremes([]float64{3}, nil); lo != 3 || hi != 3 {
		t.Fatal("1x1 tridiag should be (3,3)")
	}
}

func TestLanczosWithinGershgorinProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%20) + 5
		a := workload.RandomSPD(n, 4, 1.6, seed)
		est := Lanczos(a, n, seed)
		lo, hi := Gershgorin(a)
		return est.LambdaMin >= lo-1e-8 && est.LambdaMax <= hi+1e-8 && est.LambdaMin > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

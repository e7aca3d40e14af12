package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonPositiveDiagonal is returned by UnitDiagonalScale when some
// diagonal entry is zero or negative, which rules out the symmetric scaling
// (and, for a symmetric matrix, rules out positive definiteness).
var ErrNonPositiveDiagonal = errors.New("sparse: matrix has a non-positive diagonal entry")

// Scaling records the diagonal scaling that turned a general SPD matrix B
// into the unit-diagonal matrix A = D·B·D with D = diag(B)^{-1/2}, together
// with the transformations between the two systems:
//
//	B y = z   ⇔   A x = D z  with  y = D x.
//
// The paper assumes unit diagonal "without loss of generality" via exactly
// this rescaling (§3, Non-Unit Diagonal); Scaling makes the equivalence
// executable and testable.
type Scaling struct {
	// D holds the diagonal of D = diag(B)^{-1/2}.
	D []float64
}

// UnitDiagonalScale returns A = D·B·D with unit diagonal and the Scaling
// that relates solutions. B must be square with strictly positive diagonal.
func UnitDiagonalScale(b *CSR) (*CSR, *Scaling, error) {
	if b.Rows != b.Cols {
		return nil, nil, fmt.Errorf("sparse: UnitDiagonalScale needs a square matrix, got %dx%d", b.Rows, b.Cols)
	}
	diag := b.Diag()
	d := make([]float64, b.Rows)
	for i, v := range diag {
		if v <= 0 {
			return nil, nil, fmt.Errorf("%w: row %d has diagonal %g", ErrNonPositiveDiagonal, i, v)
		}
		d[i] = 1 / math.Sqrt(v)
	}
	a := b.Clone()
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Vals[k] *= d[i] * d[a.ColIdx[k]]
		}
	}
	return a, &Scaling{D: d}, nil
}

// RHSToUnit maps a right-hand side z of B y = z to the right-hand side D z
// of the unit-diagonal system A x = D z.
func (s *Scaling) RHSToUnit(z []float64) []float64 {
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = s.D[i] * v
	}
	return out
}

// SolutionFromUnit maps a solution x of the unit-diagonal system back to
// the solution y = D x of the original system.
func (s *Scaling) SolutionFromUnit(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = s.D[i] * v
	}
	return out
}

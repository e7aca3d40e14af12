package krylov

import (
	"context"
	"math"

	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// FCGOptions configure a Flexible-CG run.
type FCGOptions struct {
	// Tol is the relative-residual convergence threshold. The paper uses
	// 1e-8 for its Table 1 / Figure 3 experiments.
	Tol float64
	// MaxIter caps outer iterations; 0 means 10·n.
	MaxIter int
	// Workers parallelizes the SpMV.
	Workers int
	// Ctx, when non-nil, is checked before every outer iteration; a
	// cancelled context stops the solve and returns the context's error.
	Ctx context.Context
}

// FCGResult reports a Flexible-CG run.
type FCGResult struct {
	Iterations int
	Residual   float64
	Converged  bool
	// MatVecs counts operator applications by FCG itself (one per
	// iteration plus the initial residual); preconditioner work is
	// reported by the caller, which knows the sweeps-per-application.
	MatVecs int
}

// FlexibleCG solves the SPD system A·x = b with Notay's flexible conjugate
// gradient method: the preconditioner may change arbitrarily between
// iterations (AsyRGS does — it is randomized and asynchronous), and
// robustness is restored by explicitly A-orthogonalizing each new search
// direction against every previous direction, the paper's configuration
// ("we do not use truncation or restarts"). Its products are MulVecPar's
// round-robin ones.
func FlexibleCG(a *sparse.CSR, x, b []float64, precond Preconditioner, opts FCGOptions) (FCGResult, error) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		panic("krylov: FlexibleCG shape mismatch")
	}
	if precond == nil {
		precond = Identity{}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	normB := vec.Nrm2(b)
	if normB == 0 {
		normB = 1
	}

	r := make([]float64, n)
	tmp := make([]float64, n)
	a.MulVecPar(tmp, x, opts.Workers)
	matvecs := 1
	vec.Sub(r, b, tmp)

	res := vec.Nrm2(r) / normB
	if res <= tol {
		return FCGResult{Iterations: 0, Residual: res, Converged: true, MatVecs: matvecs}, nil
	}

	// Retained directions p_j, their images q_j = A·p_j, and (p_j, q_j).
	var ps, qs [][]float64
	var pq []float64

	z := make([]float64, n)
	for it := 1; it <= maxIter; it++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return FCGResult{Iterations: it - 1, Residual: res, MatVecs: matvecs}, err
			}
		}
		precond.Apply(z, r)

		// New direction: A-orthogonalize z against retained directions.
		p := append([]float64(nil), z...)
		for j := range ps {
			coef := vec.Dot(z, qs[j]) / pq[j]
			vec.Axpy(-coef, ps[j], p)
		}
		q := make([]float64, n)
		a.MulVecPar(q, p, opts.Workers)
		matvecs++
		den := vec.Dot(p, q)
		if den <= 0 || math.IsNaN(den) {
			return FCGResult{Iterations: it - 1, Residual: res, MatVecs: matvecs}, ErrNotConverged
		}
		alpha := vec.Dot(p, r) / den
		vec.Axpy(alpha, p, x)
		vec.Axpy(-alpha, q, r)

		res = vec.Nrm2(r) / normB
		if res <= tol {
			return FCGResult{Iterations: it, Residual: res, Converged: true, MatVecs: matvecs}, nil
		}

		ps = append(ps, p)
		qs = append(qs, q)
		pq = append(pq, den)
	}
	return FCGResult{Iterations: maxIter, Residual: res, MatVecs: matvecs}, ErrNotConverged
}

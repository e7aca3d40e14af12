// Package workload generates the test problems of the experiment suite.
//
// The paper's evaluation matrix is proprietary: the Gram matrix of a
// 120,147-term term-frequency matrix from a social-media regression task
// (172.9M non-zeros, max row 117,182, mean 1,439, min 1 — highly skewed,
// ill-conditioned, essentially unstructured). SocialGram reproduces that
// *shape* at laptop scale: a synthetic term–document matrix with Zipf term
// popularity and Zipf document lengths whose Gram matrix inherits the
// skew (popular terms co-occur with everything → near-full rows; rare
// terms → near-empty rows), positive semidefiniteness by construction, and
// poor conditioning. The remaining generators (grid Laplacians, random
// diagonally dominant SPD, random overdetermined systems) cover the
// paper's "reference scenario" — bounded row counts C1…C2 with small
// C2/C1 — where the theory is sharpest.
package workload

import (
	"fmt"
	"math"

	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// The shape of the synthetic social-media Gram matrix.
const (
	// socialDocTerms is the mean number of distinct terms per document.
	socialDocTerms = 10
	// socialZipfExp is the exponent of the term-popularity distribution (≈1
	// matches natural language).
	socialZipfExp = 1.2
	// socialRidge, relative to the diagonal mean, is added to the diagonal
	// to make the Gram matrix strictly positive definite (it also models
	// the regression regularizer that a real training task applies).
	socialRidge = 0.01
	// socialTopicShare is the probability that a word is drawn from the
	// document's topic block rather than the global distribution. Each
	// document is drawn mostly from one of max(8, Terms/100) latent term
	// blocks: topical correlation makes the Gram matrix nearly low-rank —
	// the ridge floors the small eigenvalues — reproducing the severe
	// ill-conditioning the paper reports for its real text data.
	socialTopicShare = 0.8
)

// SocialGramOptions size the synthetic social-media Gram matrix.
type SocialGramOptions struct {
	// Terms is the Gram dimension n (the paper's 120,147, scaled down).
	Terms int
	// Docs is the number of documents (rows of the term–document matrix).
	Docs int
	// Seed keys all randomness.
	Seed uint64
}

// DefaultSocialGram returns the options used by the experiment harness: a
// laptop-scale analogue of the paper's matrix with three documents per
// term.
func DefaultSocialGram(terms int, seed uint64) SocialGramOptions {
	return SocialGramOptions{Terms: terms, Docs: 3 * terms, Seed: seed}
}

// SocialGram builds the synthetic term–document matrix G and returns its
// Gram matrix A = GᵀG + ridge·mean(diag)·I (SPD, skewed rows) together
// with G itself (useful for the least-squares experiments). G stores term
// incidence (0/1), not term frequency: binary incidence strengthens the
// relative off-diagonal coupling (popular term pairs co-occur in almost
// every document), matching the severe ill-conditioning of the paper's
// matrix, where frequency weighting would inflate the diagonal and make
// the system easier.
func SocialGram(o SocialGramOptions) (gram, termDoc *sparse.CSR) {
	if o.Terms <= 1 || o.Docs <= 0 {
		panic(fmt.Sprintf("workload: SocialGram bad sizes terms=%d docs=%d", o.Terms, o.Docs))
	}
	topics := max(8, o.Terms/100)
	g := rng.NewSequential(o.Seed)
	// Zipf CDF over terms: p(t) ∝ (t+1)^{-s}.
	cdf := make([]float64, o.Terms)
	var total float64
	for t := 0; t < o.Terms; t++ {
		total += math.Pow(float64(t+1), -socialZipfExp)
		cdf[t] = total
	}
	for t := range cdf {
		cdf[t] /= total
	}
	sampleTerm := func() int {
		u := g.Float64()
		lo, hi := 0, o.Terms-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Topic blocks partition the term ids; a document's topical words are
	// Zipf-distributed within its block.
	sampleTopicTerm := func(topic int) int {
		blockSize := (o.Terms + topics - 1) / topics
		lo := topic * blockSize
		hi := lo + blockSize
		if hi > o.Terms {
			hi = o.Terms
		}
		if hi <= lo {
			return sampleTerm()
		}
		// Zipf within the block via inverse-power transform of a uniform:
		// cheap and close enough for workload purposes.
		u := g.Float64()
		span := float64(hi - lo)
		idx := int(span * math.Pow(u, 2)) // quadratic bias toward the block head
		if idx >= hi-lo {
			idx = hi - lo - 1
		}
		return lo + idx
	}

	coo := sparse.NewCOO(o.Docs, o.Terms)
	seen := make(map[int]bool, socialDocTerms*4)
	for d := 0; d < o.Docs; d++ {
		// Document length: geometric-ish around the mean, at least 1.
		length := 1 + int(float64(socialDocTerms)*(-math.Log(1-g.Float64())))
		if length > o.Terms {
			length = o.Terms
		}
		topic := g.Intn(topics)
		clear(seen)
		for w := 0; w < length; w++ {
			if g.Float64() < socialTopicShare {
				seen[sampleTopicTerm(topic)] = true
			} else {
				seen[sampleTerm()] = true
			}
		}
		for t := range seen {
			coo.Add(d, t, 1)
		}
	}
	termDoc = coo.ToCSR()
	gram = sparse.Gram(termDoc)

	// Guarantee every diagonal entry exists and is strictly positive: a
	// term that never occurred gets a pure-ridge row (the paper removed
	// identically-zero rows/columns; the ridge keeps dimensions stable
	// instead, which does not change the solver behaviour on the support).
	diag := gram.Diag()
	var mean float64
	cnt := 0
	for _, v := range diag {
		if v > 0 {
			mean += v
			cnt++
		}
	}
	if cnt > 0 {
		mean /= float64(cnt)
	} else {
		mean = 1
	}
	ridge := socialRidge * mean
	add := sparse.NewCOO(o.Terms, o.Terms)
	for i := 0; i < o.Terms; i++ {
		add.Add(i, i, ridge)
		cols, vals := gram.Row(i)
		for k, j := range cols {
			add.Add(i, j, vals[k])
		}
	}
	gram = add.ToCSR()
	return gram, termDoc
}

// Laplacian2D returns the (nx·ny)×(nx·ny) 5-point Dirichlet Laplacian of
// an nx×ny grid: the canonical reference-scenario SPD matrix (C1=3, C2=5).
func Laplacian2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	coo := sparse.NewCOO(n, n)
	id := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			c := id(i, j)
			coo.Add(c, c, 4)
			if i > 0 {
				coo.Add(c, id(i-1, j), -1)
			}
			if i < nx-1 {
				coo.Add(c, id(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(c, id(i, j-1), -1)
			}
			if j < ny-1 {
				coo.Add(c, id(i, j+1), -1)
			}
		}
	}
	return coo.ToCSR()
}

// Laplacian3D returns the 7-point Dirichlet Laplacian of an nx×ny×nz grid.
func Laplacian3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	coo := sparse.NewCOO(n, n)
	id := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				c := id(i, j, k)
				coo.Add(c, c, 6)
				if i > 0 {
					coo.Add(c, id(i-1, j, k), -1)
				}
				if i < nx-1 {
					coo.Add(c, id(i+1, j, k), -1)
				}
				if j > 0 {
					coo.Add(c, id(i, j-1, k), -1)
				}
				if j < ny-1 {
					coo.Add(c, id(i, j+1, k), -1)
				}
				if k > 0 {
					coo.Add(c, id(i, j, k-1), -1)
				}
				if k < nz-1 {
					coo.Add(c, id(i, j, k+1), -1)
				}
			}
		}
	}
	return coo.ToCSR()
}

// RandomSPD returns an n×n symmetric strictly diagonally dominant (hence
// SPD) matrix with about nnzPerRow off-diagonal entries per row, values
// uniform in [-1,1], and diagonal = dominance × (row absolute sum).
// dominance must exceed 1. Row i draws nnzPerRow/2+1 partners j (a draw
// of j = i is skipped), each with one value stored at (i,j) and (j,i);
// repeated draws of a position sum in generation order. The rows are
// assembled by transposing the draws' row buckets, which leaves every row
// in column order without a sort.
func RandomSPD(n, nnzPerRow int, dominance float64, seed uint64) *sparse.CSR {
	if dominance <= 1 {
		panic("workload: RandomSPD needs dominance > 1")
	}
	g := rng.NewSequential(seed)
	per := max(nnzPerRow/2+1, 0)
	// Record the draws in RNG order: draw k of row i is partner[i*per+k]
	// (-1 for a skipped j = i, which consumes no value) with value
	// val[i*per+k]. ptr[r+1] counts row r's entries.
	partner := make([]int, n*per)
	val := make([]float64, n*per)
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for k := i * per; k < (i+1)*per; k++ {
			j := g.Intn(n)
			if j == i {
				partner[k] = -1
				continue
			}
			partner[k], val[k] = j, 2*g.Float64()-1
			ptr[i+1]++
			ptr[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	// Scatter each draw to rows i and j in generation order, so that the
	// copies of a repeated position sit in every bucket in that order.
	cols := make([]int, ptr[n])
	vals := make([]float64, ptr[n])
	next := make([]int, n)
	copy(next, ptr[:n])
	for i := 0; i < n; i++ {
		for k := i * per; k < (i+1)*per; k++ {
			j := partner[k]
			if j < 0 {
				continue
			}
			p := next[i]
			cols[p], vals[p] = j, val[k]
			next[i]++
			p = next[j]
			cols[p], vals[p] = i, val[k]
			next[j]++
		}
	}

	// Transpose: the matrix is symmetric, so bucket r also lists column
	// r's entries, and appending (r, v) to row c for each (c, v) in bucket
	// r = 0, 1, … fills every row in column order, with the copies of a
	// repeated position still in generation order. Row r holds one extra
	// slot for its diagonal, written just before bucket r is read: row r
	// then holds every column below r, and bucket r never lists r itself.
	colIdx := make([]int, ptr[n]+n)
	out := make([]float64, ptr[n]+n)
	for r := range next {
		next[r] = ptr[r] + r
	}
	for r := 0; r < n; r++ {
		colIdx[next[r]] = r
		next[r]++
		for k := ptr[r]; k < ptr[r+1]; k++ {
			c := cols[k]
			colIdx[next[c]], out[next[c]] = r, vals[k]
			next[c]++
		}
	}

	// Merge each row's repeated positions left to right, set its diagonal
	// from the merged off-diagonals summed in column order, and compact it
	// in place. ptr becomes the final row starts.
	w, lo := 0, 0
	for i := 0; i < n; i++ {
		hi := ptr[i+1] + i + 1
		start, diag := w, 0
		for k := lo; k < hi; k++ {
			if w > start && colIdx[w-1] == colIdx[k] {
				out[w-1] += out[k]
				continue
			}
			if colIdx[k] == i {
				diag = w
			}
			colIdx[w], out[w] = colIdx[k], out[k]
			w++
		}
		var sum float64
		for k := start; k < w; k++ {
			if k != diag {
				sum += math.Abs(out[k])
			}
		}
		if sum == 0 {
			sum = 1
		}
		out[diag] = dominance * sum
		ptr[i+1] = w
		lo = hi
	}
	return &sparse.CSR{Rows: n, Cols: n, RowPtr: ptr, ColIdx: colIdx[:w], Vals: out[:w]}
}

// RandomOverdetermined returns a rows×cols full-column-rank-ish sparse
// matrix for the least-squares experiments: each row holds nnzPerRow
// uniform entries, and every column receives at least one entry so no
// column is empty.
func RandomOverdetermined(rows, cols, nnzPerRow int, seed uint64) *sparse.CSR {
	if rows < cols {
		panic("workload: RandomOverdetermined needs rows >= cols")
	}
	g := rng.NewSequential(seed)
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, g.Intn(cols), 2*g.Float64()-1)
		}
	}
	// Guarantee full column support (and help full rank) with a scattered
	// strong diagonal band.
	for j := 0; j < cols; j++ {
		coo.Add(j, j, 2+g.Float64())
	}
	return coo.ToCSR()
}

// RHSForSolution returns b = A·x* for a random solution x* with entries
// uniform in [-1,1], along with x*. Experiments that measure A-norm error
// need a known exact solution; the paper built one the same way (solve to
// low residual, then re-pose with b = A·x*).
func RHSForSolution(a *sparse.CSR, seed uint64) (b, xstar []float64) {
	b = make([]float64, a.Rows)
	xstar = make([]float64, a.Cols)
	RHSForSolutionInto(a, seed, b, xstar)
	return b, xstar
}

// RHSForSolutionInto is RHSForSolution writing into caller-owned buffers
// (len(b) = Rows, len(xstar) = Cols) — the pooled-buffer path of the
// serving layer, producing bit-identical values to RHSForSolution.
func RHSForSolutionInto(a *sparse.CSR, seed uint64, b, xstar []float64) {
	g := rng.NewSequential(seed)
	for i := range xstar {
		xstar[i] = 2*g.Float64() - 1
	}
	a.MulVec(b, xstar)
}

// RandomRHS returns a right-hand side with entries uniform in [-1,1].
func RandomRHS(n int, seed uint64) []float64 {
	b := make([]float64, n)
	RandomRHSInto(seed, b)
	return b
}

// RandomRHSInto is RandomRHS writing into a caller-owned buffer — the
// pooled-buffer path of the serving layer, producing bit-identical
// values to RandomRHS.
func RandomRHSInto(seed uint64, b []float64) {
	g := rng.NewSequential(seed)
	for i := range b {
		b[i] = 2*g.Float64() - 1
	}
}

// MultiRHS returns an n×cols row-major block of uniform [-1,1] right-hand
// sides — the analogue of the paper's 51 label-prediction columns.
func MultiRHS(n, cols int, seed uint64) *vec.Dense {
	g := rng.NewSequential(seed)
	d := vec.NewDense(n, cols)
	for i := range d.Data {
		d.Data[i] = 2*g.Float64() - 1
	}
	return d
}

// Describe formats the headline statistics of a matrix the way the paper
// reports its test system (size, non-zeros, row-size skew).
func Describe(name string, a *sparse.CSR) string {
	st := a.Stats()
	return fmt.Sprintf("%s: %d x %d, nnz=%d, row nnz min/mean/max = %d/%.1f/%d",
		name, a.Rows, a.Cols, a.NNZ(), st.Min, st.Mean, st.Max)
}

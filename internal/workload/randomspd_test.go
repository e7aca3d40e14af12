package workload

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// spdDraw is one of RandomSPD's draws: value v stored at (i, j) and (j, i).
type spdDraw struct {
	i, j int
	v    float64
}

// spdDraws replays RandomSPD's draws in generation order.
func spdDraws(n, nnzPerRow int, seed uint64) []spdDraw {
	g := rng.NewSequential(seed)
	var draws []spdDraw
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow/2+1; k++ {
			j := g.Intn(n)
			if j == i {
				continue
			}
			draws = append(draws, spdDraw{i, j, 2*g.Float64() - 1})
		}
	}
	return draws
}

// refRandomSPD is the reference for RandomSPD: each row lists its draws in
// generation order, a stable sort by column keeps that order among the
// copies of a repeated position, and the copies are summed left to right.
func refRandomSPD(n, nnzPerRow int, dominance float64, seed uint64) *sparse.CSR {
	type entry struct {
		col int
		v   float64
	}
	rows := make([][]entry, n)
	for _, d := range spdDraws(n, nnzPerRow, seed) {
		rows[d.i] = append(rows[d.i], entry{d.j, d.v})
		rows[d.j] = append(rows[d.j], entry{d.i, d.v})
	}
	off := &sparse.CSR{Rows: n, Cols: n, RowPtr: []int{0}}
	for _, row := range rows {
		slices.SortStableFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
		start := len(off.ColIdx)
		for _, e := range row {
			if last := len(off.ColIdx) - 1; last >= start && off.ColIdx[last] == e.col {
				off.Vals[last] += e.v
				continue
			}
			off.ColIdx = append(off.ColIdx, e.col)
			off.Vals = append(off.Vals, e.v)
		}
		off.RowPtr = append(off.RowPtr, len(off.ColIdx))
	}
	return withDiagonal(off, dominance)
}

// cooRandomSPD assembles the same draws through COO.ToCSR, whose sort
// leaves the copies of a repeated position in an order of its own. The
// test uses it to show that its grid tells that order from generation
// order.
func cooRandomSPD(n, nnzPerRow int, dominance float64, seed uint64) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for _, d := range spdDraws(n, nnzPerRow, seed) {
		coo.AddSym(d.i, d.j, d.v)
	}
	return withDiagonal(coo.ToCSR(), dominance)
}

// withDiagonal re-adds off's merged off-diagonal entries to a COO builder
// with each row's diagonal: dominance × the row's absolute sum in column
// order, or dominance when that sum is 0.
func withDiagonal(off *sparse.CSR, dominance float64) *sparse.CSR {
	final := sparse.NewCOO(off.Rows, off.Cols)
	for i := 0; i < off.Rows; i++ {
		cols, vals := off.Row(i)
		var sum float64
		for k, j := range cols {
			sum += math.Abs(vals[k])
			final.Add(i, j, vals[k])
		}
		if sum == 0 {
			sum = 1
		}
		final.Add(i, i, dominance*sum)
	}
	return final.ToCSR()
}

// maxDraws returns the largest number of RandomSPD's draws that landed on
// one off-diagonal position, so a test can show its grid sums multi-way
// duplicates.
func maxDraws(n, nnzPerRow int, seed uint64) int {
	count := make(map[[2]int]int)
	most := 0
	for _, d := range spdDraws(n, nnzPerRow, seed) {
		pos := [2]int{min(d.i, d.j), max(d.i, d.j)}
		count[pos]++
		most = max(most, count[pos])
	}
	return most
}

// bitsDiff describes the first difference between got and want in shape,
// RowPtr, ColIdx or value bits, or returns "" when they are identical.
func bitsDiff(got, want *sparse.CSR) string {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Vals) != len(want.Vals) {
		return fmt.Sprintf("lengths RowPtr/ColIdx/Vals %d/%d/%d, want %d/%d/%d",
			len(got.RowPtr), len(got.ColIdx), len(got.Vals), len(want.RowPtr), len(want.ColIdx), len(want.Vals))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Sprintf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			return fmt.Sprintf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			return fmt.Sprintf("Vals[%d] = %v, want %v (bits differ)", k, got.Vals[k], want.Vals[k])
		}
	}
	return ""
}

// TestRandomSPDMatchesCOOAssembly holds RandomSPD bit for bit to
// refRandomSPD, which sums each position's draws in generation order, over
// a grid of sizes and densities. The dense specs draw positions three or
// more times, where the summation order shows in the bits; there
// COO.ToCSR's order must give other bits on at least one spec, so the test
// tells the two orders apart.
func TestRandomSPDMatchesCOOAssembly(t *testing.T) {
	type spec struct {
		n, nnz int
		seeds  []uint64
	}
	var specs []spec
	for _, n := range []int{1, 2, 10, 50, 96, 200, 1000} {
		for _, nnz := range []int{0, 1, 2, 5, 6, 16, 64, 150} {
			specs = append(specs, spec{n, nnz, []uint64{0, 1, 2, 3}})
		}
	}
	// The benchmark's mixed-small systems and its cold-gen size.
	specs = append(specs, spec{96, 5, []uint64{1, 2, 5, 6, 7}})
	if !testing.Short() {
		specs = append(specs, spec{20000, 64, []uint64{1}})
	}
	for _, s := range specs {
		for _, seed := range s.seeds {
			want := refRandomSPD(s.n, s.nnz, 1.5, seed)
			got := RandomSPD(s.n, s.nnz, 1.5, seed)
			if d := bitsDiff(got, want); d != "" {
				t.Fatalf("n=%d nnz=%d seed=%d: %s", s.n, s.nnz, seed, d)
			}
		}
	}
	orderShows := false
	for _, d := range [][2]int{{96, 64}, {200, 150}} {
		if most := maxDraws(d[0], d[1], 0); most < 3 {
			t.Errorf("n=%d nnz=%d seed=0: at most %d draws on one position, want >= 3", d[0], d[1], most)
		}
		for _, seed := range []uint64{0, 1, 2, 3} {
			if bitsDiff(cooRandomSPD(d[0], d[1], 1.5, seed), refRandomSPD(d[0], d[1], 1.5, seed)) != "" {
				orderShows = true
			}
		}
	}
	if !orderShows {
		t.Error("COO.ToCSR's duplicate order gave generation order's bits on every dense spec: the grid cannot tell the two apart")
	}
}

// TestRandomSPDPinnedDigests pins the bits of the systems the benchmark
// and the pinned step solves build: cold-gen's and warm-large's shape, the
// mixed-small catalogue and the steps' randomspd system.
func TestRandomSPDPinnedDigests(t *testing.T) {
	cases := []struct {
		n, nnz int
		seed   uint64
		digest string
	}{
		{20000, 64, 1, "cbf2f932f3a33b66a005365e5a49ada4f2ca32456a0b6787621498c7d62c4049"},
		{96, 5, 1, "52906bd436738b3bec978787906ef0470d42020c69704c984f68bc35391bd378"},
		{96, 5, 2, "7caa62ecf1e43289ba33f2e089b44111e93b94ba16d78bea97877b847f27649e"},
		{96, 5, 5, "aa2e64c3a9778ab96ba87d1517c3b9f4b7b29760d453ef673978588c8c30bb25"},
		{96, 5, 6, "0570c029657cd883a706fff75b2b611bb15d44e421eb22af1462238c93fa4fd9"},
		{96, 5, 7, "60fbf8d6379f8b535e0f23b9f73f7320e48cdf373cce25125fec3bee0925877d"},
		{300, 6, 5, "dd44d0313221fa4681642ffd63478e4a03108e4013b61f33f9c6689fa00dffe7"},
	}
	for _, c := range cases {
		if c.n > 1000 && testing.Short() {
			continue
		}
		if got := csrDigest(RandomSPD(c.n, c.nnz, 1.5, c.seed)); got != c.digest {
			t.Errorf("RandomSPD(%d, %d, 1.5, %d) digest %s, want %s", c.n, c.nnz, c.seed, got, c.digest)
		}
	}
}

// TestRandomSPDAllocs pins RandomSPD to a handful of flat arrays per build,
// independent of n, and its bytes to the 64 MB budget at n = 20000 scaled
// to this n.
func TestRandomSPDAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	const n, nnz = 2000, 64
	const maxAllocs, maxBytes = 16, (64 << 20) * n / 20000
	if allocs := testing.AllocsPerRun(5, func() { RandomSPD(n, nnz, 1.5, 1) }); allocs > maxAllocs {
		t.Errorf("RandomSPD(%d, %d) made %.0f allocations, budget %d", n, nnz, allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RandomSPD(n, nnz, 1.5, 1)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > maxBytes {
		t.Errorf("RandomSPD(%d, %d) allocated %d bytes, budget %d", n, nnz, bytes, maxBytes)
	}
}

// spdSink keeps BenchmarkRandomSPD's result live.
var spdSink *sparse.CSR

// BenchmarkRandomSPD builds the benchmark's cold-gen system (n = 20000,
// nnz = 64) from a fresh seed each iteration.
func BenchmarkRandomSPD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spdSink = RandomSPD(20000, 64, 1.5, uint64(i))
	}
}

package workload

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// cooRandomSPD is RandomSPD's original two-pass COO assembly: every draw
// goes into a COO builder, the builder is compressed, and a second builder
// re-adds the merged off-diagonal entries plus the diagonal. RandomSPD
// assembles CSR directly and must reproduce it bit for bit.
func cooRandomSPD(n, nnzPerRow int, dominance float64, seed uint64) *sparse.CSR {
	g := rng.NewSequential(seed)
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow/2+1; k++ {
			j := g.Intn(n)
			if j == i {
				continue
			}
			v := 2*g.Float64() - 1
			coo.AddSym(i, j, v)
		}
	}
	off := coo.ToCSR()
	final := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := off.Row(i)
		var sum float64
		for k, j := range cols {
			if j != i {
				sum += math.Abs(vals[k])
				final.Add(i, j, vals[k])
			}
		}
		if sum == 0 {
			sum = 1
		}
		final.Add(i, i, dominance*sum)
	}
	return final.ToCSR()
}

// maxDraws replays RandomSPD's draws and returns the largest number that
// landed on one off-diagonal position, so a test can show its grid sums
// multi-way duplicates.
func maxDraws(n, nnzPerRow int, seed uint64) int {
	g := rng.NewSequential(seed)
	draws := make(map[[2]int]int)
	most := 0
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow/2+1; k++ {
			j := g.Intn(n)
			if j == i {
				continue
			}
			g.Float64()
			pos := [2]int{min(i, j), max(i, j)}
			draws[pos]++
			most = max(most, draws[pos])
		}
	}
	return most
}

// sameBits fails t unless got and want have identical shape, RowPtr,
// ColIdx and value bits.
func sameBits(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: lengths RowPtr/ColIdx/Vals %d/%d/%d, want %d/%d/%d", name,
			len(got.RowPtr), len(got.ColIdx), len(got.Vals), len(want.RowPtr), len(want.ColIdx), len(want.Vals))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", name, k, got.ColIdx[k], want.ColIdx[k])
		}
		if math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			t.Fatalf("%s: Vals[%d] = %v, want %v (bits differ)", name, k, got.Vals[k], want.Vals[k])
		}
	}
}

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
			want := cooRandomSPD(s.n, s.nnz, 1.5, seed)
			got := RandomSPD(s.n, s.nnz, 1.5, seed)
			sameBits(t, fmt.Sprintf("n=%d nnz=%d seed=%d", s.n, s.nnz, seed), got, want)
		}
	}
	// In the dense specs positions drawn three or more times are common,
	// and there the order duplicates are summed in shows in the bits.
	for _, d := range [][2]int{{96, 64}, {200, 150}} {
		if most := maxDraws(d[0], d[1], 0); most < 3 {
			t.Errorf("n=%d nnz=%d seed=0: at most %d draws on one position, want >= 3", d[0], d[1], most)
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

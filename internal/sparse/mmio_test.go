package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/rng"
)

// cooReadMM is the COO-based MatrixMarket parser ReadMMLimit replaced:
// every line becomes a string and a strings.Fields slice, every entry (and
// its mirror) a COO entry, and ToCSR assembles the result. ReadMMLimit
// must accept and reject exactly what it does, with the same error text,
// and return the same CSR bit for bit.
func cooReadMM(r io.Reader, maxDim int) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad MatrixMarket header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket format %q (only coordinate)", header[2])
	}
	field := header[3]
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", field)
	}
	sym := header[4]
	if sym != "general" && sym != "symmetric" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", sym)
	}
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: MatrixMarket stream ended before size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %v", line, err)
		}
		break
	}
	switch {
	case rows < 0 || cols < 0 || nnz < 0:
		return nil, fmt.Errorf("sparse: negative MatrixMarket size %d %d %d", rows, cols, nnz)
	case rows > maxDim || cols > maxDim:
		return nil, fmt.Errorf("sparse: MatrixMarket size %dx%d exceeds the dimension limit %d", rows, cols, maxDim)
	case sym == "symmetric" && rows != cols:
		return nil, fmt.Errorf("sparse: symmetric MatrixMarket matrix must be square, got %dx%d", rows, cols)
	}
	coo := NewCOO(rows, cols)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: MatrixMarket stream ended after %d of %d entries", read, nnz)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: bad MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry %q outside the declared %dx%d size (indices are 1-based)", line, rows, cols)
		}
		i--
		j--
		if sym == "symmetric" && i != j {
			coo.Add(i, j, v)
			coo.Add(j, i, v)
		} else {
			coo.Add(i, j, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket: %w", err)
	}
	return coo.ToCSR(), nil
}

// sameAsCOOParser fails t unless ReadMMLimit and cooReadMM agree on input:
// both reject it with the same message, or both return the same bits.
func sameAsCOOParser(t *testing.T, name, input string, maxDim int) *CSR {
	t.Helper()
	got, err := ReadMMLimit(strings.NewReader(input), maxDim)
	want, wantErr := cooReadMM(strings.NewReader(input), maxDim)
	switch {
	case err != nil || wantErr != nil:
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: ReadMMLimit error %v, COO parser error %v", name, err, wantErr)
		}
	case !bitsEqual(got, want):
		t.Fatalf("%s: ReadMMLimit and the COO parser return different matrices", name)
	}
	return got
}

// uploadMM returns the MatrixMarket text of a symmetric diagonally dominant
// matrix shaped like the benchmark's uploads: perRow draws of a lower
// triangle partner per row (a draw of the diagonal is skipped), values with
// six decimals, and a diagonal of 1.5 × the row's absolute sum. Repeated
// draws of a position stay separate lines, so the parser sums them.
func uploadMM(n, perRow int, seed uint64) string {
	g := rng.NewSequential(seed)
	six := func() float64 { return float64(g.Intn(2_000_001)-1_000_000) / 1e6 }
	rowAbs := make([]float64, n)
	var lines []byte
	count := 0
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			j := g.Intn(n)
			if j == i {
				continue
			}
			v := six()
			lines = strconv.AppendInt(lines, int64(max(i, j)+1), 10)
			lines = append(lines, ' ')
			lines = strconv.AppendInt(lines, int64(min(i, j)+1), 10)
			lines = append(lines, ' ')
			lines = strconv.AppendFloat(lines, v, 'g', -1, 64)
			lines = append(lines, '\n')
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
			count++
		}
	}
	for i := 0; i < n; i++ {
		lines = fmt.Appendf(lines, "%d %d %g\n", i+1, i+1, math.Ceil(1.5*rowAbs[i]*1e6)/1e6)
	}
	return fmt.Sprintf("%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, count+n) + string(lines)
}

func TestReadMMMatchesCOOParser(t *testing.T) {
	// An upload-shaped body, and the benchmark's own size when time
	// allows.
	sizes := []int{6000}
	if !testing.Short() {
		sizes = append(sizes, 20000)
	}
	for _, n := range sizes {
		body := uploadMM(n, 16, uint64(n))
		m := sameAsCOOParser(t, fmt.Sprintf("upload n=%d", n), body, math.MaxInt32)
		if m == nil || m.Rows != n {
			t.Fatalf("upload n=%d: parsed %v, want %d rows", n, m, n)
		}
	}
	// The 1 MB line limit counts the line end: a line one byte shorter
	// than the limit is read, one of the limit's length is not.
	hdr := "%%MatrixMarket matrix coordinate real general\n1 1 1\n"
	for _, size := range []int{mmMaxLine - 1, mmMaxLine} {
		pad := strings.Repeat(" ", size-len("1 1 2"))
		m := sameAsCOOParser(t, fmt.Sprintf("line of %d bytes", size), hdr+"1 1 2"+pad+"\n", 1)
		if (m != nil) != (size < mmMaxLine) {
			t.Fatalf("line of %d bytes: parsed %v, want parsed only below %d", size, m != nil, mmMaxLine)
		}
	}
}

// TestReadMMAllocs pins ReadMM to a fixed number of allocations, whatever
// the entry count, and its bytes to a budget per entry: a parser that made
// a string or a slice per line would blow both.
func TestReadMMAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	small, large := uploadMM(125, 15, 1), uploadMM(1000, 19, 1)
	// A garbage collection during a run adds the runtime's own
	// allocations to the count, so none runs while it is taken.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(body string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadMM(strings.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const maxAllocs = 24
	if a, b := allocs(small), allocs(large); a != b || b > maxAllocs {
		t.Errorf("ReadMM made %.0f allocations on %d lines and %.0f on %d, want the same and at most %d",
			a, strings.Count(small, "\n"), b, strings.Count(large, "\n"), maxAllocs)
	}
	// An off-diagonal entry line costs 48 bytes: 16 in the flat arrays and
	// 16 in each of its two buckets. The budget allows 56 per line plus
	// 128 KB for the scanner buffer and the rest; 1.04 MB was measured.
	lines := strings.Count(large, "\n") - 2
	maxBytes := uint64(56*lines + 128<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadMM(strings.NewReader(large)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > maxBytes {
		t.Errorf("ReadMM of %d entry lines allocated %d bytes, budget %d", lines, bytes, maxBytes)
	}
}

// BenchmarkReadMM parses an upload-shaped body (n = 20000, 16 draws per
// row: about 340k lines and 6.9 MB of text) from a strings.Reader, as the
// daemon does.
func BenchmarkReadMM(b *testing.B) {
	body := uploadMM(20000, 16, 1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMM(strings.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

package sparse

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzMaxDim bounds the dimensions the fuzz targets accept. Assembly
// allocates O(rows) for any declared size, so an unbounded target would
// spend its time (and memory) on sizes such as "2000000000 1 0"; the limit
// check itself is covered by the seeds that exceed it.
const fuzzMaxDim = 1 << 12

// FuzzReadMM checks that arbitrary input never panics the MatrixMarket
// parser, that it accepts and rejects what the COO-based reference parser
// does with the same error and the same CSR bits, and that anything it
// accepts survives a write/read round trip.
func FuzzReadMM(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -3\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1\n3 3 4\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n")
	// Inputs that must be errors, not crashes: an index past the
	// declared size, an index of 0, a negative dimension, a rectangular
	// symmetric matrix whose mirror falls outside it, a negative count,
	// and a size over the limit.
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 0\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 -1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n99999999999 1 0\n")
	// One position listed three times in a symmetric file: the sum, and its
	// mirror's, is 1e16 in file order and 1e16+2 in reverse.
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n2 1 1e16\n2 1 1\n2 1 1\n")
	// Separators and line ends the parser must treat as strings.Fields
	// does: CRLF, tabs and U+00A0, a stray U+3000 around a field.
	f.Add("%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 -3\r\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1\t1\t1.5\n2\u00a02\u00a0-3\u3000\n")
	// Comment and blank lines between entries, and lines after the
	// declared count, which are ignored.
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n% c\n\n2 1\n   \n%\n3 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3\n2 2 not a number\n9 9\n")
	// A line over the 1 MB limit.
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 " + strings.Repeat("1", mmMaxLine) + "\n")
	f.Fuzz(func(t *testing.T, input string) {
		m := sameAsCOOParser(t, "input", input, fuzzMaxDim)
		if m == nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteMM(&buf, m); err != nil {
			t.Fatalf("accepted matrix failed to serialize: %v", err)
		}
		back, err := ReadMMLimit(&buf, fuzzMaxDim)
		if err != nil {
			t.Fatalf("round trip of accepted matrix failed: %v", err)
		}
		if back.Rows != m.Rows || back.Cols != m.Cols {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d", back.Rows, back.Cols, m.Rows, m.Cols)
		}
	})
}

// FuzzReadMMVector covers the vector reader similarly.
func FuzzReadMMVector(f *testing.F) {
	f.Add("%%MatrixMarket matrix array real general\n3 1\n1\n2\n3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 1 1\n2 1 -7\n")
	f.Add("%%MatrixMarket matrix array real general\n1 2\n1\n2\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix array real general\n-1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 1 1\n3 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		v, err := readMMVector(strings.NewReader(input), fuzzMaxDim)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMMVector(&buf, v); err != nil {
			t.Fatalf("accepted vector failed to serialize: %v", err)
		}
		back, err := readMMVector(&buf, fuzzMaxDim)
		if err != nil || len(back) != len(v) {
			t.Fatalf("vector round trip failed: %v (len %d vs %d)", err, len(back), len(v))
		}
	})
}

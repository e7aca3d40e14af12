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
// parser and that anything it accepts survives a write/read round trip.
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
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadMMLimit(strings.NewReader(input), fuzzMaxDim)
		if err != nil {
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

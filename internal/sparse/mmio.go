package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MatrixMarket coordinate-format I/O. Supported headers:
//
//	%%MatrixMarket matrix coordinate real general
//	%%MatrixMarket matrix coordinate real symmetric
//	%%MatrixMarket matrix coordinate pattern general|symmetric (values = 1)
//
// Symmetric files store the lower triangle; ReadMM mirrors off-diagonal
// entries so the returned CSR holds the full matrix, matching how the
// solvers consume it.

// mmMaxLine is the longest line, in bytes with its line end, that the
// MatrixMarket readers accept.
const mmMaxLine = 1 << 20

// ReadMM parses a MatrixMarket coordinate stream into CSR. Malformed
// input is an error, never a panic: a bad header or size line, a negative
// count, a symmetric header on a rectangular size, a line over 1 MB, an
// entry with too few fields, or an entry whose 1-based index lies outside
// the declared size. Lines after the declared count are ignored.
// Dimensions above math.MaxInt32 are rejected, so every index fits an
// int32 while it is parsed.
//
// Each entry goes to its row's bucket in file order, a symmetric entry's
// mirror right after it; FromRowBuckets then sums a row's duplicates in
// the order its sort leaves them.
func ReadMM(r io.Reader) (*CSR, error) {
	return ReadMMLimit(r, math.MaxInt32)
}

// ReadMMLimit is ReadMM that rejects a size line declaring more than
// maxDim rows or columns (math.MaxInt32 at most) before it allocates
// anything. Assembly allocates O(rows) however few entries follow, so a
// service parsing untrusted bodies passes its own dimension limit here.
func ReadMMLimit(r io.Reader, maxDim int) (*CSR, error) {
	maxDim = min(maxDim, math.MaxInt32)
	// The declared entry count sizes the first allocation only up to what
	// the stream can hold: one entry per four bytes ("1 1\n") when its
	// length is known, else 1<<16 entries, grown as lines arrive.
	hint := 1 << 16
	if l, ok := r.(interface{ Len() int }); ok {
		hint = l.Len()/4 + 1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), mmMaxLine)
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
	field := header[3] // real | integer | pattern
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", field)
	}
	sym := header[4] // general | symmetric
	if sym != "general" && sym != "symmetric" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", sym)
	}

	// Skip comments, read the size line.
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
	mirror := sym == "symmetric"
	want := 3
	if field == "pattern" {
		want = 2
	}

	// Parse each entry line in place into three flat arrays (0-based
	// indices) and count every row's bucket, mirrors included, in
	// rowPtr[i+1].
	hint = min(hint, nnz)
	ri := make([]int32, 0, hint)
	ci := make([]int32, 0, hint)
	vs := make([]float64, 0, hint)
	rowPtr := make([]int, rows+1)
	var f [3][]byte
	for len(vs) < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: MatrixMarket stream ended after %d of %d entries", len(vs), nnz)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		rest := line
		for k := 0; k < want; k++ {
			if f[k], rest = nextField(rest); len(f[k]) == 0 {
				return nil, fmt.Errorf("sparse: bad MatrixMarket entry %q", line)
			}
		}
		i, err := strconv.Atoi(string(f[0]))
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if want == 3 {
			v, err = strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry %q outside the declared %dx%d size (indices are 1-based)", line, rows, cols)
		}
		// MatrixMarket is 1-based.
		ri = append(ri, int32(i-1))
		ci = append(ci, int32(j-1))
		vs = append(vs, v)
		rowPtr[i]++
		if mirror && i != j {
			rowPtr[j]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket: %w", err)
	}

	// Turn the counts into bucket starts, rowPtr[i+1] = start of row i,
	// and scatter in file order with rowPtr[i+1] as row i's cursor: each
	// cursor ends at its row's end, which is the next row's start.
	total := 0
	for i := 1; i <= rows; i++ {
		rowPtr[i], total = total, total+rowPtr[i]
	}
	colIdx := make([]int, total)
	vals := make([]float64, total)
	for k, v := range vs {
		i, j := int(ri[k]), int(ci[k])
		p := rowPtr[i+1]
		colIdx[p], vals[p] = j, v
		rowPtr[i+1]++
		if mirror && i != j {
			p = rowPtr[j+1]
			colIdx[p], vals[p] = i, v
			rowPtr[j+1]++
		}
	}
	return FromRowBuckets(rows, cols, rowPtr, colIdx, vals), nil
}

// Byte classes for nextField: an ASCII byte unicode.IsSpace accepts, and
// a byte of a multi-byte UTF-8 sequence, which needs decoding.
const (
	spaceByte = 1 + iota
	runeByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = runeByte
	}
	return c
}()

// nextField returns the first field of s, as strings.Fields splits it
// (runs of bytes between unicode.IsSpace runes), and what follows it. The
// field is empty when s holds none. ASCII bytes take a table lookup; only
// a multi-byte rune is decoded.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		c := byteClass[s[i]]
		if c == 0 {
			break
		}
		if c == spaceByte {
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	start := i
	for i < len(s) {
		c := byteClass[s[i]]
		if c == 0 {
			i++
			continue
		}
		if c == spaceByte {
			break
		}
		r, size := utf8.DecodeRune(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return s[start:i], s[i:]
}

// WriteMM writes the matrix in MatrixMarket coordinate real general format.
func WriteMM(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[k]+1, m.Vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteMMSymmetric writes a symmetric matrix storing only the lower
// triangle (including the diagonal). The caller is responsible for m being
// symmetric; ReadMM will mirror the triangle back.
func WriteMMSymmetric(w io.Writer, m *CSR) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("sparse: WriteMMSymmetric needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	lower := 0
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] <= i {
				lower++
			}
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", m.Rows, m.Cols, lower); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if j := m.ColIdx[k]; j <= i {
				if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, m.Vals[k]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

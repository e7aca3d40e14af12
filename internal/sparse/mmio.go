package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// ReadMM parses a MatrixMarket coordinate stream into CSR. Malformed
// input is an error, never a panic: a bad header or size line, a negative
// count, a symmetric header on a rectangular size, or an entry whose
// 1-based index lies outside the declared size. Dimensions above
// math.MaxInt32 are rejected.
func ReadMM(r io.Reader) (*CSR, error) {
	return ReadMMLimit(r, math.MaxInt32)
}

// ReadMMLimit is ReadMM that rejects a size line declaring more than
// maxDim rows or columns before it allocates anything. Assembly allocates
// O(rows) however few entries follow, so a service parsing untrusted
// bodies passes its own dimension limit here.
func ReadMMLimit(r io.Reader, maxDim int) (*CSR, error) {
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
		// MatrixMarket is 1-based.
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

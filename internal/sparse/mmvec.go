package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMMVector parses a MatrixMarket file holding an n×1 vector in either
// array format ("%%MatrixMarket matrix array real general") or coordinate
// format (as written by WriteMM on an n×1 matrix) and returns it densely.
// Like ReadMM it rejects malformed input with an error, and lengths above
// math.MaxInt32.
func ReadMMVector(r io.Reader) ([]float64, error) {
	return readMMVector(r, math.MaxInt32)
}

// readMMVector is ReadMMVector with a dimension limit; see ReadMMLimit.
func readMMVector(r io.Reader, maxDim int) ([]float64, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket vector header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad MatrixMarket header %q", strings.TrimSpace(header))
	}
	switch fields[2] {
	case "array":
		return readArrayVector(br, fields, maxDim)
	case "coordinate":
		// Re-assemble the stream for the coordinate reader.
		m, err := ReadMMLimit(io.MultiReader(strings.NewReader(header), br), maxDim)
		if err != nil {
			return nil, err
		}
		if m.Cols != 1 {
			return nil, fmt.Errorf("sparse: expected an n×1 vector, got %dx%d", m.Rows, m.Cols)
		}
		v := make([]float64, m.Rows)
		for i := 0; i < m.Rows; i++ {
			_, vals := m.Row(i)
			if len(vals) > 0 {
				v[i] = vals[0]
			}
		}
		return v, nil
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket format %q for vectors", fields[2])
	}
}

func readArrayVector(br *bufio.Reader, header []string, maxDim int) ([]float64, error) {
	if f := header[3]; f != "real" && f != "integer" {
		return nil, fmt.Errorf("sparse: unsupported array field %q", f)
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var rows, cols int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols); err != nil {
			return nil, fmt.Errorf("sparse: bad array size line %q: %v", line, err)
		}
		break
	}
	if cols != 1 {
		return nil, fmt.Errorf("sparse: expected an n×1 array vector, got %dx%d", rows, cols)
	}
	if rows < 0 || rows > maxDim {
		return nil, fmt.Errorf("sparse: array vector length %d outside [0, %d]", rows, maxDim)
	}
	// The declared length only sizes the first allocation, and is capped:
	// a short stream cannot reserve gigabytes by declaring them.
	v := make([]float64, 0, min(rows, 1<<16))
	for len(v) < rows && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		x, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad array entry %q: %v", line, err)
		}
		v = append(v, x)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(v) != rows {
		return nil, fmt.Errorf("sparse: array vector truncated: %d of %d entries", len(v), rows)
	}
	return v, nil
}

// WriteMMVector writes v as an n×1 MatrixMarket array-format matrix, the
// conventional dense-vector interchange format.
func WriteMMVector(w io.Writer, v []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix array real general\n%d 1\n", len(v)); err != nil {
		return err
	}
	for _, x := range v {
		if _, err := fmt.Fprintf(bw, "%.17g\n", x); err != nil {
			return err
		}
	}
	return bw.Flush()
}

package method

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// enc and dec are the little-endian binary codec behind the
// prepared-state payloads (persist.go). They keep the per-family
// serializers declarative — a sequence of typed appends and reads — and
// give every decode path one set of defensive bounds checks: a length
// prefix is validated against the bytes actually remaining before
// anything is allocated, so a damaged or adversarial payload cannot
// request an absurd slice.

// errCorrupt reports a payload that failed structural decoding: a
// truncated field, a length prefix exceeding the remaining bytes, or
// trailing garbage.
var errCorrupt = errors.New("method: corrupt prepared-state payload")

// enc appends typed fields to a growing buffer.
type enc struct {
	buf []byte
}

func (e *enc) bytes() []byte { return e.buf }

func (e *enc) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// size appends a non-negative int (a dimension) as a uint64.
func (e *enc) size(v int) { e.u64(uint64(v)) }

// f64s appends a length-prefixed float64 slice as raw IEEE-754 bits.
func (e *enc) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, f := range v {
		e.u64(math.Float64bits(f))
	}
}

// ints appends a length-prefixed []int, each entry as a uint64.
func (e *enc) ints(v []int) {
	e.u64(uint64(len(v)))
	for _, i := range v {
		e.u64(uint64(i))
	}
}

// dec consumes typed fields from a buffer. The first malformed read
// latches err and every later read returns zero values, so decoders can
// read a whole record and check the error once at the end.
type dec struct {
	buf []byte
	err error
}

// close verifies the stream was consumed exactly: trailing bytes latch
// errCorrupt (a well-formed record has no slack).
func (d *dec) close() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(d.buf))
	}
	return d.err
}

// take consumes n bytes, latching errCorrupt on underflow.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes, have %d", errCorrupt, n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// size reads a uint64 and narrows it to a non-negative int, latching
// errCorrupt if the value does not fit.
func (d *dec) size() int {
	v := d.u64()
	if d.err != nil {
		return 0
	}
	if v > math.MaxInt64 || uint64(int(v)) != v {
		d.err = fmt.Errorf("%w: integer %d out of range", errCorrupt, v)
		return 0
	}
	return int(v)
}

// sliceLen validates a length prefix against the remaining bytes at
// elemSize bytes per element before any allocation happens.
func (d *dec) sliceLen(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf))/uint64(elemSize) {
		d.err = fmt.Errorf("%w: slice of %d elements exceeds %d remaining bytes", errCorrupt, n, len(d.buf))
		return 0
	}
	return int(n)
}

// f64s reads a length-prefixed float64 slice.
func (d *dec) f64s() []float64 {
	n := d.sliceLen(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(d.u64())
	}
	return out
}

// ints reads a length-prefixed []int.
func (d *dec) ints() []int {
	n := d.sliceLen(8)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.size()
	}
	if d.err != nil {
		return nil
	}
	return out
}

package method

import (
	"fmt"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// PersistentPreparer is the optional interface of methods whose prepared
// state can round-trip through bytes. EncodePrepared serializes only the
// derived state (norms, diagonals, column views) — never the matrix,
// whose identity the caller must pair with the payload itself — and
// DecodePrepared rebuilds a PreparedSystem over the caller's matrix,
// applying the same prep-time option handling (precision views,
// weighted-sampling validation) as a fresh Prepare. A restored system
// must be behaviorally identical to a freshly prepared one:
// deterministic solves produce bit-identical trajectories (asserted in
// tests).
type PersistentPreparer interface {
	Method
	// EncodePrepared serializes ps's derived per-matrix state. It must
	// only be called with a PreparedSystem this method produced.
	EncodePrepared(ps PreparedSystem) ([]byte, error)
	// DecodePrepared rebuilds a prepared system over a from an encoded
	// payload. Structural damage is an error (callers fall back to a
	// fresh Prepare); it must never panic on arbitrary bytes.
	DecodePrepared(a *sparse.CSR, payload []byte, opts Opts) (PreparedSystem, error)
}

// AsPersistent reports whether m can persist its prepared systems,
// returning the persistence view when it can. A funcMethod qualifies
// only when both codec hooks are wired.
func AsPersistent(m Method) (PersistentPreparer, bool) {
	if fm, ok := m.(*funcMethod); ok {
		if fm.encode == nil || fm.decode == nil {
			return nil, false
		}
		return fm, true
	}
	pp, ok := m.(PersistentPreparer)
	return pp, ok
}

// Payload framing: every family payload opens with a format version and
// a family tag, so a payload that reaches the wrong family's decoder
// fails loudly instead of misparsing.
const (
	persistVersion = 1

	familyCore     = 'c'
	familyKaczmarz = 'k'
	familyLSQ      = 'l'
)

// persistHeader opens a family payload.
func persistHeader(e *enc, family byte) {
	e.u8(persistVersion)
	e.u8(family)
}

// checkHeader validates a family payload's version and tag.
func checkHeader(d *dec, family byte) error {
	if v := d.u8(); d.err == nil && v != persistVersion {
		return fmt.Errorf("method: prepared-state payload version %d, want %d", v, persistVersion)
	}
	if f := d.u8(); d.err == nil && f != family {
		return fmt.Errorf("method: prepared-state payload family %q, want %q", f, family)
	}
	return d.err
}

// ---------------------------------------------------------------------------
// AsyRGS / RGS family codec: diagonal + reciprocal. The alias table,
// CDF and float32 view rebuild lazily (or eagerly per opts) from these.

func coreEncode(ps PreparedSystem) ([]byte, error) {
	p, ok := ps.(*corePrepared)
	if !ok {
		return nil, fmt.Errorf("method: cannot encode %T as core prepared state", ps)
	}
	diag, invD := p.prep.State()
	var e enc
	persistHeader(&e, familyCore)
	e.f64s(diag)
	e.f64s(invD)
	return e.bytes(), nil
}

// coreDecode builds the decode hook for an AsyRGS/RGS variant; the
// closure carries the same variant flags as its corePrepare twin so a
// restored system finishes through identical option handling.
func coreDecode(name string, baseOpts core.Options, sequential bool) decodeFunc {
	return func(a *sparse.CSR, payload []byte, opts Opts) (PreparedSystem, error) {
		d := &dec{buf: payload}
		if err := checkHeader(d, familyCore); err != nil {
			return nil, err
		}
		diag := d.f64s()
		invD := d.f64s()
		if err := d.close(); err != nil {
			return nil, err
		}
		prep, err := core.PrepFromState(a, diag, invD)
		if err != nil {
			return nil, err
		}
		return finishCorePrepared(name, baseOpts, sequential, a, prep, opts)
	}
}

// ---------------------------------------------------------------------------
// Kaczmarz codec: squared row norms; CDF and alias table rebuild in
// O(n) at decode.

func kaczmarzEncode(ps PreparedSystem) ([]byte, error) {
	p, ok := ps.(*kaczmarzPrepared)
	if !ok {
		return nil, fmt.Errorf("method: cannot encode %T as kaczmarz prepared state", ps)
	}
	var e enc
	persistHeader(&e, familyKaczmarz)
	e.f64s(p.prep.State())
	return e.bytes(), nil
}

func kaczmarzDecode(a *sparse.CSR, payload []byte, opts Opts) (PreparedSystem, error) {
	d := &dec{buf: payload}
	if err := checkHeader(d, familyKaczmarz); err != nil {
		return nil, err
	}
	rowNorm2 := d.f64s()
	if err := d.close(); err != nil {
		return nil, err
	}
	prep, err := kaczmarz.PrepFromState(a, rowNorm2)
	if err != nil {
		return nil, err
	}
	return finishKaczmarzPrepared(a, prep, opts)
}

// ---------------------------------------------------------------------------
// Least-squares codec: the CSC column view (the transpose pass that
// dominates lsq preparation) plus squared column norms.

func lsqEncode(ps PreparedSystem) ([]byte, error) {
	p, ok := ps.(*lsqPrepared)
	if !ok {
		return nil, fmt.Errorf("method: cannot encode %T as lsq prepared state", ps)
	}
	csc, colNorm2 := p.prep.State()
	var e enc
	persistHeader(&e, familyLSQ)
	e.size(csc.Rows)
	e.size(csc.Cols)
	e.ints(csc.ColPtr)
	e.ints(csc.RowIdx)
	e.f64s(csc.Vals)
	e.f64s(colNorm2)
	return e.bytes(), nil
}

// lsqDecode builds the decode hook for an lsqcd variant.
func lsqDecode(name string, sequential, weighted bool) decodeFunc {
	return func(a *sparse.CSR, payload []byte, opts Opts) (PreparedSystem, error) {
		d := &dec{buf: payload}
		if err := checkHeader(d, familyLSQ); err != nil {
			return nil, err
		}
		csc := &sparse.CSC{Rows: d.size(), Cols: d.size(), ColPtr: d.ints(), RowIdx: d.ints(), Vals: d.f64s()}
		colNorm2 := d.f64s()
		if err := d.close(); err != nil {
			return nil, err
		}
		prep, err := lsq.PrepFromState(a, csc, colNorm2)
		if err != nil {
			return nil, err
		}
		return finishLSQPrepared(name, sequential, weighted, a, prep, opts)
	}
}

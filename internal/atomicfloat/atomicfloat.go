// Package atomicfloat provides lock-free atomic operations on float64
// values stored in plain []float64 slices.
//
// The AsyRGS update (x)_r ← (x)_r + βγ must be atomic (Assumption A-1 of
// the paper). Modern CPUs expose this as a compare-and-exchange loop on the
// 64-bit word holding the float; Go's sync/atomic gives us exactly that via
// uint64 CAS on the bit pattern. The functions here operate on *float64 and
// rely on the fact that float64 and uint64 share size and alignment, so a
// []float64 can be updated concurrently without auxiliary storage: the same
// slice can be read with plain loads by non-atomic variants (the paper's
// "non atomic" ablation) or atomically by these helpers.
package atomicfloat

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// word reinterprets a *float64 as a *uint64 for atomic access. float64 and
// uint64 have identical size and alignment on all Go platforms.
func word(addr *float64) *uint64 {
	return (*uint64)(unsafe.Pointer(addr))
}

// Load atomically loads *addr.
func Load(addr *float64) float64 {
	return math.Float64frombits(atomic.LoadUint64(word(addr)))
}

// Add atomically performs *addr += delta and returns the new value. It
// implements the compare-and-exchange retry loop that gives AsyRGS its
// atomic single-coordinate update.
func Add(addr *float64, delta float64) float64 {
	w := word(addr)
	for {
		old := atomic.LoadUint64(w)
		next := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(w, old, math.Float64bits(next)) {
			return next
		}
	}
}

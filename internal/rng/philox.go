// Package rng implements the Philox4x32-10 counter-based pseudo-random
// number generator of Salmon, Moraes, Dror and Shaw ("Parallel random
// numbers: as easy as 1, 2, 3", SC'11) — the Random123 family.
//
// The paper's experiments fix the direction sequence d₀,d₁,… across thread
// counts by using Random123's random-access property: the j-th random value
// is a pure function of (key, j) and can be computed by any thread without
// coordination or a shared stream. This package reproduces that capability
// with the Philox4x32-10 member of the family: a 128-bit counter, a 64-bit
// key, ten rounds of multiply-and-xor mixing, and 128 bits of output per
// block.
package rng

import (
	"math"
	"math/bits"
)

// Philox4x32-10 round constants, from the Random123 reference
// implementation.
const (
	philoxM0 = 0xD2511F53 // multiplier for lane 0
	philoxM1 = 0xCD9E8D57 // multiplier for lane 2
	philoxW0 = 0x9E3779B9 // golden-ratio key schedule increment
	philoxW1 = 0xBB67AE85 // sqrt(3)-1 key schedule increment
)

// philox computes ten rounds of Philox4x32 on the counter (c0, c1, c2, c3)
// with the key (k0, k1) and returns the 128-bit output block. It is a pure
// function: identical inputs produce identical outputs on every platform.
// Counter, key and block are separate words, not arrays, so that they
// travel in registers: Go's register ABI passes arrays through memory.
func philox(c0, c1, c2, c3, k0, k1 uint32) (uint32, uint32, uint32, uint32) {
	for round := 0; round < 10; round++ {
		hi0, lo0 := mulHiLo32(philoxM0, c0)
		hi1, lo1 := mulHiLo32(philoxM1, c2)
		c0, c1, c2, c3 = hi1^c1^k0, lo1, hi0^c3^k1, lo0
		k0 += philoxW0
		k1 += philoxW1
	}
	return c0, c1, c2, c3
}

// mulHiLo32 returns the high and low 32-bit halves of a×b.
func mulHiLo32(a, b uint32) (hi, lo uint32) {
	p := uint64(a) * uint64(b)
	return uint32(p >> 32), uint32(p)
}

// Stream is a random-access pseudo-random stream: element i is a pure
// function of (seed, i). A Stream is immutable and safe for concurrent use
// by any number of goroutines, which is exactly what the asynchronous
// solver needs — worker p computing global iteration j evaluates At(j)
// without touching shared state.
type Stream struct {
	k0, k1 uint32
}

// NewStream returns the random-access stream identified by seed.
func NewStream(seed uint64) Stream {
	return Stream{k0: uint32(seed), k1: uint32(seed >> 32)}
}

// Uint64At returns the i-th 64-bit output of the stream.
func (s Stream) Uint64At(i uint64) uint64 {
	b0, b1, _, _ := philox(uint32(i), uint32(i>>32), 0, 0, s.k0, s.k1)
	return uint64(b0) | uint64(b1)<<32
}

// Uint64PairAt returns two independent 64-bit outputs for index i, using
// all 128 bits of the underlying block.
func (s Stream) Uint64PairAt(i uint64) (uint64, uint64) {
	b0, b1, b2, b3 := philox(uint32(i), uint32(i>>32), 0, 0, s.k0, s.k1)
	return uint64(b0) | uint64(b1)<<32, uint64(b2) | uint64(b3)<<32
}

// Float64At returns the i-th output as a float64 uniform on [0,1). It uses
// the top 53 bits so every representable value is equally likely.
func (s Stream) Float64At(i uint64) float64 {
	return float64(s.Uint64At(i)>>11) / (1 << 53)
}

// IntnAt returns the i-th output reduced to [0,n) using the unbiased-to-
// 2⁻⁶⁴ multiply-shift reduction (Lemire). It panics if n <= 0.
func (s Stream) IntnAt(i uint64, n int) int {
	if n <= 0 {
		panic("rng: IntnAt with non-positive n")
	}
	hi, _ := bits.Mul64(s.Uint64At(i), uint64(n))
	return int(hi)
}

// Sequential is a conventional stateful generator layered on a Stream. It
// is not safe for concurrent use; create one per goroutine (cheap) or use
// the random-access Stream API directly.
type Sequential struct {
	stream Stream
	next   uint64
	// buffered second half of the current block
	buf    uint64
	hasBuf bool
	// cached second normal from Box–Muller
	norm    float64
	hasNorm bool
}

// NewSequential returns a stateful generator over the stream with the given
// seed, starting at index 0.
func NewSequential(seed uint64) *Sequential {
	return &Sequential{stream: NewStream(seed)}
}

// Uint64 returns the next 64-bit value.
func (g *Sequential) Uint64() uint64 {
	if g.hasBuf {
		g.hasBuf = false
		return g.buf
	}
	a, b := g.stream.Uint64PairAt(g.next)
	g.next++
	g.buf = b
	g.hasBuf = true
	return a
}

// Float64 returns the next value uniform on [0,1).
func (g *Sequential) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Intn returns the next value reduced to [0,n).
func (g *Sequential) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(g.Uint64(), uint64(n))
	return int(hi)
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform. Two uniforms are consumed per pair of normals; the spare is
// cached.
func (g *Sequential) NormFloat64() float64 {
	if g.hasNorm {
		g.hasNorm = false
		return g.norm
	}
	// Box–Muller: u in (0,1], v in [0,1).
	u := 1 - g.Float64()
	v := g.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	s, c := math.Sincos(2 * math.Pi * v)
	g.norm = r * s
	g.hasNorm = true
	return r * c
}

// Perm returns a pseudo-random permutation of [0,n) via Fisher–Yates.
func (g *Sequential) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

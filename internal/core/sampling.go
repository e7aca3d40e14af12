package core

import (
	"fmt"
	"math"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/rng"
)

// samplerKind enumerates the direction distributions of the inner loop.
type samplerKind uint8

const (
	// samplerUniform draws uniformly over all n coordinates — the
	// paper's headline distribution.
	samplerUniform samplerKind = iota
	// samplerWeightedAlias draws coordinate r with probability
	// A_rr/tr(A) (the general Leventhal–Lewis distribution) through a
	// Walker/Vose alias table: O(1) per pick.
	samplerWeightedAlias
	// samplerPartitioned gives worker w exclusive ownership of the
	// contiguous block [w·n/P, (w+1)·n/P) and draws uniformly within it —
	// the restricted randomization of the paper's distributed-memory
	// discussion. With equal blocks and workers drawing at the same rate
	// the marginal stays uniform; what changes is that no coordinate is
	// ever contended.
	samplerPartitioned
)

// sampler maps a global iteration index to the coordinate updated at
// that iteration. Every mode is a pure function of (stream, index) —
// plus the worker id in partitioned mode, where ownership is part of the
// contract — so all workers agree on the direction sequence without
// coordination. It is a concrete struct rather than an interface so the
// hot loop pays no dynamic dispatch and building one allocates nothing.
type sampler struct {
	kind    samplerKind
	n       int
	workers int
	tab     *alias.Table // samplerWeightedAlias
}

// pick returns the coordinate for global iteration j when executed by
// the given worker (worker matters only for partitioned sampling).
func (s sampler) pick(stream rng.Stream, j uint64, worker int) int {
	switch s.kind {
	case samplerWeightedAlias:
		return s.tab.Pick(stream, j)
	case samplerPartitioned:
		lo, hi := s.block(worker)
		return lo + stream.IntnAt(j, hi-lo)
	default:
		return stream.IntnAt(j, s.n)
	}
}

// fill maps global iterations [base, base+len(dst)) to coordinates in
// one pass — the chunked-claiming fast path. The distribution switch is
// hoisted out of the loop and each mode consumes its Philox blocks in a
// tight scan, so a worker that claimed a chunk touches the generator
// machinery once per index with no dispatch. fill(base, dst)[t] equals
// pick(base+t) exactly, for every chunk partitioning.
func (s sampler) fill(stream rng.Stream, base uint64, dst []int32, worker int) {
	switch s.kind {
	case samplerWeightedAlias:
		tab := s.tab
		for t := range dst {
			u1, u2 := stream.Uint64PairAt(base + uint64(t))
			dst[t] = int32(tab.PickUints(u1, u2))
		}
	case samplerPartitioned:
		lo, hi := s.block(worker)
		for t := range dst {
			dst[t] = int32(lo + stream.IntnAt(base+uint64(t), hi-lo))
		}
	default:
		n := s.n
		for t := range dst {
			dst[t] = int32(stream.IntnAt(base+uint64(t), n))
		}
	}
}

// block returns worker w's owned coordinate range in partitioned mode.
func (s sampler) block(worker int) (lo, hi int) {
	if s.workers <= 1 {
		return 0, s.n
	}
	lo = worker * s.n / s.workers
	hi = (worker + 1) * s.n / s.workers
	if hi <= lo {
		// More workers than rows: clamp to a singleton block.
		lo = worker % s.n
		hi = lo + 1
	}
	return lo, hi
}

// validateWeights enforces the diagonal-weighted sampling contract:
// entries must be finite and positive. A zero or negative diagonal entry,
// or a non-positive trace, cannot define the Leventhal–Lewis
// distribution.
func validateWeights(diag []float64) error {
	if len(diag) == 0 {
		return fmt.Errorf("core: diagonal-weighted sampling needs a non-empty diagonal")
	}
	for i, d := range diag {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("core: diagonal-weighted sampling needs a finite diagonal, row %d has %g", i, d)
		}
		if d <= 0 {
			return fmt.Errorf("core: diagonal-weighted sampling needs a positive diagonal, row %d has %g", i, d)
		}
	}
	return nil
}

// newSampler selects the sampler implied by the options. Partitioned
// takes precedence for the asynchronous path; the synchronous path (one
// worker) treats partitioned as uniform, which is the P = 1 special
// case. The weighted distribution picks through the alias table.
func (s *Solver) newSampler(async bool) sampler {
	switch {
	case s.opts.Partitioned && async && s.opts.Workers > 1:
		return sampler{kind: samplerPartitioned, n: s.a.Rows, workers: s.opts.Workers}
	case s.opts.DiagonalWeighted:
		return sampler{kind: samplerWeightedAlias, tab: s.diagAlias}
	default:
		return sampler{kind: samplerUniform, n: s.a.Rows}
	}
}

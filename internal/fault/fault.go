// Package fault is the deterministic fault-injection layer behind the
// sharded backend's message faults: a per-site Injector that decides
// whether a given operation's payload is dropped or delayed, as a pure
// function of (stream, op-index) — the same Philox random-access
// discipline the solvers use for their direction draws. Two runs with
// the same seed inject identical fault schedules, so tests can assert
// exact drop and delay counts instead of eyeballing logs.
//
// The package owns no clock: a Delay decision is realized by the site
// (internal/distmem defers the message to the end of its round), never
// by sleeping, so the solver packages that consume injectors stay clean
// under the repository's determinism analyzer.
//
// Sites: each fault site (a distmem rank's outbox) constructs its own
// Injector from a shared Config plus a site label; the label is folded
// into the stream key, so two sites never share a fault schedule even
// under one seed.
package fault

import "github.com/asynclinalg/asyrgs/internal/rng"

// Config declares the fault mix one site should inject. The zero value
// injects nothing. Rates are probabilities in [0,1], evaluated
// independently per operation.
type Config struct {
	// Seed keys the fault schedule; the site label is folded in, so one
	// seed drives distinct per-site schedules.
	Seed uint64
	// DropRate is the probability an operation's payload is silently
	// lost (an undelivered message).
	DropRate float64
	// DelayRate is the probability an operation is delayed.
	DelayRate float64
}

// Enabled reports whether the config can inject anything at all; sites
// use it to skip injector plumbing entirely on the common no-fault path.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.DelayRate > 0
}

// Decision is the fault verdict for one operation; its fields are
// independent draws.
type Decision struct {
	Drop  bool
	Delay bool
}

// Injector decides faults for one site. The decision for op-index i is a
// pure function of (config, site, i): replayable, platform-independent,
// and computable by any goroutine without coordination. An Injector is
// immutable, so it is safe for concurrent use.
type Injector struct {
	cfg    Config
	stream rng.Stream
}

// New builds the injector for one fault site. A nil receiver is the
// universal "no faults" injector: DecideAt on a nil *Injector decides
// nothing, so call sites need no nil guards. New returns nil when cfg
// injects nothing.
func New(cfg Config, site string) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, stream: rng.NewStream(cfg.Seed ^ fnv64a(site))}
}

// fnv64a is the FNV-1a hash of the site label — hash/maphash would be
// process-seeded and break cross-run determinism.
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// DecideAt returns the fault verdict for op-index i: a pure function,
// so callers with a natural operation index (distmem's per-message
// (iteration, peer) coordinates) get replay-exact schedules. One Philox
// block holds four independent 32-bit lanes; drop reads lane 1 and delay
// lane 3. The lane assignment is part of every recorded schedule, so
// moving a decision to another lane changes which operations fault.
func (in *Injector) DecideAt(i uint64) Decision {
	if in == nil {
		return Decision{}
	}
	b := in.stream.BlockAt(i)
	return Decision{
		Drop:  uniform32(b[1]) < in.cfg.DropRate,
		Delay: uniform32(b[3]) < in.cfg.DelayRate,
	}
}

// uniform32 maps one 32-bit lane to [0,1).
func uniform32(x uint32) float64 {
	return float64(x) / (1 << 32)
}

// Package distmem is the sharded distributed-memory execution backend of
// the restricted-randomization solver that the paper's introduction
// sketches as future work: "in a distributed memory setting it is
// desirable that each processor owns and be the sole updater of only a
// subset of the entries. To allow this, a more limited form of
// randomization should be used."
//
// Each worker owns a contiguous block of coordinates holding about an
// equal share of the nonzeros (NNZBalanced), keeps a private full copy
// of the iterate, performs Randomized Gauss–Seidel steps, drawn uniformly
// from its block, against its (stale) copy, and ships every
// committed update to the other workers through bounded message queues.
// Each worker has one shared inbox sized QueueCap·(w−1)+1 — room for
// QueueCap in-flight updates from each of the other w−1 ranks plus one —
// into which every peer sends. The queue capacity is the communication
// budget: a full inbox exerts backpressure, so the staleness any worker
// can accumulate is bounded by (workers−1)·QueueCap + workers in-flight
// updates — a physical, tunable realisation of Assumption A-3's delay
// bound τ. Message passing is the only communication; no memory is shared
// between workers (the iterate copies are private and exchanged by
// value), making this a faithful single-process model of an MPI-style
// deployment.
//
// The package follows the repository's two-phase shape: Prepare captures
// the per-matrix state (ownership partition, validated diagonal, one
// direction-stream key per worker) once, NewSolver forks a persistent
// pool of worker goroutines from it, and each Solve round reuses that pool
// instead of respawning goroutines. Per-worker stream offsets advance
// across rounds, so every round samples fresh coordinates and the
// restricted randomization stays i.i.d. over a whole run. A solve to a
// tolerance runs rounds through outer.Run: the registry's asyrgs-distmem
// method, whose round boundaries are the global synchronizations of the
// occasional-synchronization scheme.
package distmem

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// Config configures a distributed solve.
type Config struct {
	// Workers is the number of emulated ranks; each owns a contiguous
	// coordinate block.
	Workers int
	// QueueCap is each peer's share of a worker's inbox (the
	// communication budget): every inbox holds QueueCap·(workers−1)+1
	// messages. Minimum 1.
	QueueCap int
	// Beta is the step size, in (0, 2); 0 means 1.
	Beta float64
	// Seed keys the per-worker direction streams.
	Seed uint64
}

// update is one committed coordinate delta, the only message type on the
// emulated network.
type update struct {
	idx   int
	delta float64
}

// Result reports one round.
type Result struct {
	// Residual is the relative residual of the assembled solution.
	Residual float64
	// MessagesSent counts the updates shipped across the network.
	MessagesSent uint64
	// MaxQueueLen is the largest inbox backlog observed at a send.
	MaxQueueLen int
}

// Prepared is the per-matrix state of the sharded backend, captured once
// by Prepare: the ownership partition, the validated diagonal, and one
// direction-stream key per worker. A Prepared is immutable and safe for
// concurrent use; fork Solvers from it to run.
type Prepared struct {
	a        *sparse.CSR
	part     Partition
	diag     []float64
	streams  []rng.Stream
	beta     float64
	queueCap int
}

// Prepare validates the system and the step size and captures the
// sharded per-matrix state.
func Prepare(a *sparse.CSR, cfg Config) (*Prepared, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("distmem: matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	queueCap := cfg.QueueCap
	if queueCap < 1 {
		queueCap = 1
	}
	beta := cfg.Beta
	if beta == 0 {
		beta = 1
	}
	if !(beta > 0 && beta < 2) {
		return nil, fmt.Errorf("distmem: step size %g outside (0,2)", beta)
	}
	diag := a.Diag()
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("distmem: zero diagonal at row %d", i)
		}
	}
	streams := make([]rng.Stream, w)
	for i := range streams {
		streams[i] = rng.NewStream(cfg.Seed ^ (uint64(i) * 0x9E3779B97F4A7C15))
	}
	return &Prepared{a: a, part: NNZBalanced(a, w), diag: diag, streams: streams, beta: beta, queueCap: queueCap}, nil
}

// roundCmd is one round's work order, delivered to every pool worker.
type roundCmd struct {
	ctx     context.Context
	x, b    []float64
	sweeps  int
	base    uint64 // stream offset: iteration j samples index base+j
	inboxes []chan update
	sent    *atomic64
	maxQ    *atomicMax
	pick    func(worker, idx int) // test hook; nil outside tests
}

// Solver runs synchronized rounds of restricted-randomization sweeps on a
// persistent pool of worker goroutines forked from a Prepared. The pool
// is spawned once by NewSolver and reused by every round (and every
// right-hand side) until Close; per-worker stream offsets advance each
// round so rounds never replay a coordinate sequence. A Solver is not
// safe for concurrent use — fork one per in-flight solve.
type Solver struct {
	p       *Prepared
	cmds    []chan roundCmd
	iterate sync.WaitGroup // phase 1 of a round: everyone still sending
	drain   sync.WaitGroup // phase 2 of a round: final drains
	base    []uint64       // per-worker stream offset, advanced per round
	closed  bool
	onPick  func(worker, idx int) // test hook: observes sampled coordinates
}

// NewSolver spawns the persistent worker pool. Callers must Close it.
func (p *Prepared) NewSolver() *Solver {
	w := p.part.Workers()
	s := &Solver{p: p, cmds: make([]chan roundCmd, w), base: make([]uint64, w)}
	for id := 0; id < w; id++ {
		s.cmds[id] = make(chan roundCmd)
		go s.worker(id)
	}
	return s
}

// Close stops the worker pool; the Solver must not be used afterwards.
// Close is idempotent.
func (s *Solver) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.cmds {
		close(ch)
	}
}

// worker is one emulated rank: it lives for the Solver's lifetime and
// executes one roundCmd at a time. Its private iterate copy is a
// persistent buffer, refreshed from the shared x at every round start.
func (s *Solver) worker(id int) {
	p := s.p
	lo, hi := p.part.Block(id)
	w := p.part.Workers()
	local := make([]float64, p.a.Rows)
	stream := p.streams[id]
	for cmd := range s.cmds[id] {
		copy(local, cmd.x)
		inbox := cmd.inboxes[id]

		applyAll := func() {
			for {
				select {
				case u := <-inbox:
					local[u.idx] += u.delta
				default:
					return
				}
			}
		}
		// deliver ships one committed update to one peer. A full peer
		// inbox is never blocked on: the non-blocking attempt is retried,
		// draining our own inbox between attempts, so a cycle of workers
		// with full inboxes always makes progress — somebody's inbox
		// gains room because everybody keeps consuming while waiting.
		deliver := func(peer int, u update) {
			if q := len(cmd.inboxes[peer]); q > 0 {
				cmd.maxQ.observe(q)
			}
			for delivered := false; !delivered; {
				select {
				case cmd.inboxes[peer] <- u:
					delivered = true
				default:
					applyAll()
					runtime.Gosched()
				}
			}
			cmd.sent.add(1)
		}
		iters := cmd.sweeps * (hi - lo)
		for j := 0; j < iters; j++ {
			// Poll cancellation cheaply; on cancel stop iterating but
			// still run the drain phase below so peers' in-flight sends
			// complete and the round terminates cleanly.
			if j&63 == 0 && cmd.ctx.Err() != nil {
				break
			}
			applyAll()
			r := lo + stream.IntnAt(cmd.base+uint64(j), hi-lo)
			if cmd.pick != nil {
				cmd.pick(id, r)
			}
			gamma := (cmd.b[r] - p.a.RowDot(r, local)) / p.diag[r]
			delta := p.beta * gamma
			local[r] += delta
			for peer := 0; peer < w; peer++ {
				if peer != id {
					deliver(peer, update{idx: r, delta: delta})
				}
			}
		}
		s.iterate.Done()
		// Final drain: consume peers' remaining traffic until the
		// coordinator closes this round's inbox, then publish the
		// authoritative (sole-updated) owner block.
		for u := range inbox {
			local[u.idx] += u.delta
		}
		copy(cmd.x[lo:hi], local[lo:hi])
		s.drain.Done()
	}
}

// round runs one synchronized round over the pool: fresh inboxes, a work
// order per worker, an iterate barrier, a drain barrier. On return x
// holds each owner's authoritative block. The stream offsets advance by
// the full round even when ctx cancels it early, so a resumed run never
// replays coordinates.
func (s *Solver) round(ctx context.Context, x, b []float64, sweeps int) (messages uint64, maxQueue int, err error) {
	p := s.p
	w := p.part.Workers()
	inboxes := make([]chan update, w)
	for i := range inboxes {
		inboxes[i] = make(chan update, p.queueCap*(w-1)+1)
	}
	var sent atomic64
	var maxQ atomicMax
	s.iterate.Add(w)
	s.drain.Add(w)
	for id := 0; id < w; id++ {
		lo, hi := p.part.Block(id)
		cmd := roundCmd{
			ctx: ctx, x: x, b: b, sweeps: sweeps, base: s.base[id],
			inboxes: inboxes, sent: &sent, maxQ: &maxQ, pick: s.onPick,
		}
		// Pool workers sit between rounds here, so the work order lands
		// as soon as the worker is scheduled. The cancellation arm keeps
		// the dispatch non-blocking: if ctx dies mid-dispatch, stand in
		// for the unreached worker at both barriers so the round still
		// terminates cleanly (its block simply goes un-updated).
		select {
		case s.cmds[id] <- cmd:
		case <-ctx.Done():
			s.iterate.Done()
			s.drain.Done()
		}
		s.base[id] += uint64(sweeps * (hi - lo))
	}
	s.iterate.Wait()
	for _, ch := range inboxes {
		close(ch)
	}
	s.drain.Wait()
	return sent.load(), maxQ.load(), ctx.Err()
}

// Solve runs one round of sweeps·(block size) restricted-randomization
// Gauss–Seidel iterations on every pool worker and assembles the solution
// from the owner blocks. x is both the initial guess and the output. A
// cancelled ctx stops the round early and returns the context's error
// alongside the partial result.
func (s *Solver) Solve(ctx context.Context, x, b []float64, sweeps int) (Result, error) {
	if n := s.p.a.Rows; len(x) != n || len(b) != n {
		return Result{}, fmt.Errorf("distmem: shape mismatch n=%d len(x)=%d len(b)=%d", n, len(x), len(b))
	}
	msgs, maxQ, err := s.round(ctx, x, b, sweeps)
	return Result{
		Residual:     relResidual(s.p.a, x, b),
		MessagesSent: msgs,
		MaxQueueLen:  maxQ,
	}, err
}

// relResidual is ‖b−Ax‖₂/‖b‖₂ (absolute when ‖b‖₂ = 0).
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	var num, den float64
	for i := 0; i < a.Rows; i++ {
		r := b[i] - a.RowDot(i, x)
		num += r * r
		den += b[i] * b[i]
	}
	if den == 0 {
		return sqrt(num)
	}
	return sqrt(num / den)
}

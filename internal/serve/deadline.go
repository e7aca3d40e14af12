package serve

import (
	"context"
	"time"
)

// deadlineCtx is a poolable replacement for context.WithTimeout on the
// solve path. The standard constructor allocates a timer, a cancel
// closure and the context value itself on every solve — per-request
// garbage on the warmest path in the daemon — where all the solve
// context actually has to do is make Err() report DeadlineExceeded once
// the solve budget elapses.
//
// Semantics relative to context.WithTimeout:
//
//   - Err() reports the parent's error first, then DeadlineExceeded once
//     the deadline passes. Every solver family checks cancellation by
//     polling Err() at least once per sweep (outer.Run between sweeps,
//     the stationary and Krylov loops every iteration, distmem's ranks
//     every 64 updates), so the budget is enforced within about a sweep
//     whatever check_every.
//   - Done() passes through to the parent: the channel fires on client
//     disconnect but not on deadline expiry. No consumer of the solve
//     context selects on Done() — the solve path is poll-based — so
//     nothing observes the difference; a future Done-based waiter would
//     still unblock on client disconnect and at solve completion.
//   - Deadline() reports the earlier of the parent's deadline and the
//     solve budget, so cooperative callers see the true bound.
//
// A deadlineCtx is embedded in the pooled solveItem and reinitialized
// per solve; it needs no cancel/stop because nothing runs until expiry.
type deadlineCtx struct {
	parent   context.Context
	deadline time.Time
}

// reset points the context at a parent with a fresh budget.
//
//asyrgs:noalloc
func (d *deadlineCtx) reset(parent context.Context, timeout time.Duration) {
	d.parent, d.deadline = parent, time.Now().Add(timeout)
}

func (d *deadlineCtx) Deadline() (time.Time, bool) {
	if pd, ok := d.parent.Deadline(); ok && pd.Before(d.deadline) {
		return pd, true
	}
	return d.deadline, true
}

func (d *deadlineCtx) Done() <-chan struct{} { return d.parent.Done() }

func (d *deadlineCtx) Err() error {
	if err := d.parent.Err(); err != nil {
		return err
	}
	if time.Now().After(d.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

func (d *deadlineCtx) Value(key any) any { return d.parent.Value(key) }

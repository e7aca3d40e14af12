package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// sessionCache is a small generic LRU keyed by string, used twice by the
// daemon: once for built matrices (so repeated requests skip parsing or
// regeneration) and once for prepared solver systems keyed by
// matrix×method×prep-opts (so a cache hit also skips Gram/row-norm/
// diagonal preparation — the Prepare phase of the pipeline). Concurrent
// requests for the same key share one build: the first request constructs
// the value under the entry's once-latch while the rest wait on it, and a
// failed build is never served from cache — a waiter that joined a build
// which then fails gets the error but counts no hit, and an arrival that
// finds a resolved failure (the window between a failed build and its
// removal) drops it and rebuilds instead of replaying the error.
//
// Counter invariant, asserted in tests: at any quiescent point,
// size == misses − evictions − drops (every entry was created by exactly
// one miss and leaves by exactly one eviction or failed-build drop).
type sessionCache[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
	// drops counts failed builds removed from the cache (they occupied
	// an entry between insertion and the builder's cleanup).
	drops uint64
	// evictSkips counts still-building entries passed over by the
	// eviction scan; each skip is a duplicated-Prepare the old victim
	// policy would have caused.
	evictSkips uint64
}

// session is one cached entry. resolved flips (atomically, after the
// once completes) when the build has finished, which lets the eviction
// scan and the warm hit path inspect completion without touching the
// once-latch.
type session[V any] struct {
	key      string
	once     sync.Once
	build    func() (V, error)
	v        V
	err      error
	resolved atomic.Bool
}

// await runs the entry's build exactly once and blocks callers until it
// has resolved. The resolved fast path keeps warm hits from
// constructing the once closure (and keeps them allocation-free).
func (s *session[V]) await() {
	if s.resolved.Load() {
		return
	}
	s.once.Do(func() {
		s.v, s.err = s.build()
		s.build = nil // the closure may pin request-sized state
		s.resolved.Store(true)
	})
}

func newSessionCache[V any](max int) *sessionCache[V] {
	if max < 1 {
		max = 1
	}
	return &sessionCache[V]{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// evictLocked trims the cache toward max, skipping entries whose build
// is still in flight — evicting one would detach a running build and
// make the next same-key arrival duplicate it. Skipped entries leave
// the cache temporarily over capacity; every later insertion and build
// resolution re-scans, so the cache converges back to max once builds
// settle. keep (the caller's own just-resolved entry, nil on the insert
// path) is never chosen as a victim.
func (c *sessionCache[V]) evictLocked(keep *session[V]) {
	over := c.ll.Len() - c.max
	for el := c.ll.Back(); el != nil && over > 0; {
		prev := el.Prev()
		s := el.Value.(*session[V])
		if s == keep {
			el = prev
			continue
		}
		if !s.resolved.Load() {
			c.evictSkips++
			el = prev
			continue
		}
		c.ll.Remove(el)
		delete(c.items, s.key)
		c.evictions++
		over--
		el = prev
	}
}

// getOrBuild returns the cached value for key, building it with build on
// a miss. The boolean reports a cache hit — true only when a
// successfully built value was shared.
func (c *sessionCache[V]) getOrBuild(key string, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		s := el.Value.(*session[V])
		if s.resolved.Load() && s.err != nil {
			// A failed build its builder has not yet removed: treat it
			// as a miss and rebuild rather than replaying the error.
			c.ll.Remove(el)
			delete(c.items, key)
			c.drops++
		} else {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			s.await()
			if s.err != nil {
				// The joined build failed; its builder drops the entry.
				// No hit: the caller got an error, not a cached value.
				var zero V
				return zero, false, s.err
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return s.v, true, nil
		}
	}
	c.misses++
	s := &session[V]{key: key, build: build}
	el := c.ll.PushFront(s)
	c.items[key] = el
	c.evictLocked(nil)
	c.mu.Unlock()

	s.await()
	c.mu.Lock()
	if s.err != nil {
		// Do not cache failures: drop the entry if still present (a
		// concurrent stale-failure arrival may have dropped it first,
		// or an eviction scan removed the resolved failure).
		if el, ok := c.items[key]; ok && el.Value.(*session[V]) == s {
			c.ll.Remove(el)
			delete(c.items, key)
			c.drops++
		}
	}
	// Re-scan for capacity: eviction scans that ran while this build
	// was in flight skipped it and possibly others, so the resolution is
	// what shrinks an over-full cache back to max. The fresh entry
	// itself is exempt — it is the most recently used value.
	c.evictLocked(s)
	c.mu.Unlock()
	return s.v, false, s.err
}

// len returns the number of cached sessions.
func (c *sessionCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// counters returns a snapshot of the accounting counters.
func (c *sessionCache[V]) counters() (hits, misses, evictions, drops, evictSkips uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.drops, c.evictSkips, c.ll.Len()
}

// stats packages the counters as the /stats cache block.
func (c *sessionCache[V]) stats(capacity int) CacheStats {
	hits, misses, evictions, drops, evictSkips, size := c.counters()
	return CacheStats{
		Hits: hits, Misses: misses, Evictions: evictions,
		Drops: drops, EvictSkips: evictSkips,
		Size: size, Capacity: capacity,
	}
}

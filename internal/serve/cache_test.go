package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func tinyMatrix() (*sparse.CSR, error) { return workload.RandomSPD(10, 3, 1.5, 1), nil }

func TestCacheLRUEviction(t *testing.T) {
	c := newSessionCache[*sparse.CSR](2)
	for i := 0; i < 3; i++ {
		if _, hit, err := c.getOrBuild(fmt.Sprintf("k%d", i), tinyMatrix); hit || err != nil {
			t.Fatalf("k%d: hit=%v err=%v", i, hit, err)
		}
	}
	// k0 is the least recently used and must have been evicted.
	if _, hit, _ := c.getOrBuild("k0", tinyMatrix); hit {
		t.Fatal("k0 should have been evicted")
	}
	hits, misses, evictions, drops, _, size := c.counters()
	if hits != 0 || misses != 4 || evictions < 1 || drops != 0 || size != 2 {
		t.Fatalf("counters: hits=%d misses=%d evictions=%d drops=%d size=%d", hits, misses, evictions, drops, size)
	}
}

func TestCacheTouchRefreshesRecency(t *testing.T) {
	c := newSessionCache[*sparse.CSR](2)
	c.getOrBuild("a", tinyMatrix)
	c.getOrBuild("b", tinyMatrix)
	c.getOrBuild("a", tinyMatrix) // touch a: b becomes LRU
	c.getOrBuild("c", tinyMatrix) // evicts b
	if _, hit, _ := c.getOrBuild("a", tinyMatrix); !hit {
		t.Fatal("a was touched and must survive")
	}
	if _, hit, _ := c.getOrBuild("b", tinyMatrix); hit {
		t.Fatal("b must have been evicted")
	}
}

func TestCacheFailedBuildNotCached(t *testing.T) {
	c := newSessionCache[*sparse.CSR](4)
	boom := errors.New("boom")
	if _, _, err := c.getOrBuild("bad", func() (*sparse.CSR, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// The failure must not be cached: the next lookup rebuilds.
	if _, hit, err := c.getOrBuild("bad", tinyMatrix); hit || err != nil {
		t.Fatalf("failed build was cached: hit=%v err=%v", hit, err)
	}
}

// TestCacheSharedBuild: concurrent requests for one key run the builder
// exactly once; everyone gets the same matrix.
func TestCacheSharedBuild(t *testing.T) {
	c := newSessionCache[*sparse.CSR](4)
	var builds atomic.Int64
	build := func() (*sparse.CSR, error) {
		builds.Add(1)
		return workload.RandomSPD(50, 4, 1.5, 9), nil
	}
	const clients = 8
	out := make([]*sparse.CSR, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, _, err := c.getOrBuild("shared", build)
			if err != nil {
				t.Error(err)
			}
			out[i] = a
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	for i := 1; i < clients; i++ {
		if out[i] != out[0] {
			t.Fatal("clients received different matrices for one key")
		}
	}
}

// A caller that joins an in-flight build which then fails must receive
// the error as a miss: no hit counted, hit=false. The entry is staged
// exactly as a creator leaves it mid-build (unresolved, build pending),
// so the join path runs deterministically in this goroutine.
func TestCacheFailedJoinCountsNoHit(t *testing.T) {
	c := newSessionCache[*sparse.CSR](4)
	boom := errors.New("boom")
	s := &session[*sparse.CSR]{key: "k", build: func() (*sparse.CSR, error) { return nil, boom }}
	c.items["k"] = c.ll.PushFront(s)
	c.misses++

	_, hit, err := c.getOrBuild("k", func() (*sparse.CSR, error) {
		t.Error("joiner must wait on the in-flight build, not rebuild")
		return nil, nil
	})
	if hit {
		t.Fatal("joining a failed build counted as a hit")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	hits, _, _, _, _, _ := c.counters()
	if hits != 0 {
		t.Fatalf("hits = %d, want 0 (the build failed)", hits)
	}
}

// An arrival in the window between a failed build resolving and its
// builder removing the entry must not be handed the cached error: the
// entry is dropped and rebuilt as a miss.
func TestCacheStaleFailureRebuilt(t *testing.T) {
	c := newSessionCache[*sparse.CSR](4)
	boom := errors.New("boom")
	s := &session[*sparse.CSR]{key: "k", build: func() (*sparse.CSR, error) { return nil, boom }}
	s.await() // resolve the failure; the builder has not yet dropped it
	c.items["k"] = c.ll.PushFront(s)
	c.misses++

	a, hit, err := c.getOrBuild("k", tinyMatrix)
	if err != nil || hit || a == nil {
		t.Fatalf("stale failure replayed: a=%v hit=%v err=%v", a, hit, err)
	}
	hits, misses, evictions, drops, _, size := c.counters()
	if hits != 0 || misses != 2 || drops != 1 || size != 1 {
		t.Fatalf("counters: hits=%d misses=%d drops=%d size=%d", hits, misses, drops, size)
	}
	if want := misses - evictions - drops; uint64(size) != want {
		t.Fatalf("invariant: size=%d, misses-evictions-drops=%d", size, want)
	}
}

// Eviction must pass over a still-building entry: evicting it would
// detach the in-flight build and make the next same-key request
// silently duplicate an expensive Prepare.
func TestCacheEvictionSkipsInFlight(t *testing.T) {
	c := newSessionCache[*sparse.CSR](1)
	started := make(chan struct{})
	release := make(chan struct{})
	var aBuilds atomic.Int64
	creatorDone := make(chan struct{})
	go func() {
		defer close(creatorDone)
		_, _, err := c.getOrBuild("a", func() (*sparse.CSR, error) {
			aBuilds.Add(1)
			close(started)
			<-release
			return tinyMatrix()
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started

	// Inserting "b" overflows capacity 1, but the in-flight "a" must
	// survive the eviction scan.
	if _, _, err := c.getOrBuild("b", tinyMatrix); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, skips, size := c.counters()
	if skips == 0 {
		t.Fatal("eviction scan did not record skipping the in-flight entry")
	}
	if size != 2 {
		t.Fatalf("size = %d, want 2 (temporarily over capacity)", size)
	}

	// A second request for "a" must join the one in-flight build.
	joinerDone := make(chan struct{})
	go func() {
		defer close(joinerDone)
		_, hit, err := c.getOrBuild("a", func() (*sparse.CSR, error) {
			aBuilds.Add(1)
			return tinyMatrix()
		})
		if err != nil || !hit {
			t.Errorf("joiner: hit=%v err=%v", hit, err)
		}
	}()
	close(release)
	<-creatorDone
	<-joinerDone
	if n := aBuilds.Load(); n != 1 {
		t.Fatalf("'a' built %d times, want 1 (eviction duplicated the build)", n)
	}

	// With everything resolved, the next insertion trims back to cap.
	if _, _, err := c.getOrBuild("c", tinyMatrix); err != nil {
		t.Fatal(err)
	}
	hits, misses, evictions, drops, _, size := c.counters()
	if size != 1 {
		t.Fatalf("size = %d after trim, want 1", size)
	}
	if want := misses - evictions - drops; uint64(size) != want {
		t.Fatalf("invariant: size=%d misses=%d evictions=%d drops=%d", size, misses, evictions, drops)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (the joiner)", hits)
	}
}

// The accounting invariant size == misses − evictions − drops must hold
// at quiescence under concurrent hits, misses, failures, shared builds
// and evictions — the combined regression for the three accounting
// fixes (failed-join hits, stale-failure replay, in-flight eviction).
func TestCacheCounterInvariantUnderChurn(t *testing.T) {
	c := newSessionCache[int](4)
	boom := errors.New("boom")
	const goroutines, ops, keys = 8, 300, 11
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g*7+i*13)%keys)
				fail := (g+i)%5 == 0
				v, hit, err := c.getOrBuild(key, func() (int, error) {
					if fail {
						return 0, boom
					}
					return 1, nil
				})
				if hit && (err != nil || v != 1) {
					t.Errorf("hit with v=%d err=%v", v, err)
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, evictions, drops, _, size := c.counters()
	if want := misses - evictions - drops; uint64(size) != want {
		t.Fatalf("invariant broken: size=%d misses=%d evictions=%d drops=%d (want size=%d)",
			size, misses, evictions, drops, want)
	}
	if size != c.len() || size > 2*keys {
		t.Fatalf("size bookkeeping: size=%d len=%d", size, c.len())
	}
	_ = hits
}

func TestMatrixSpecKeyStability(t *testing.T) {
	a := MatrixSpec{Kind: "randomspd", N: 100, NNZ: 6, Seed: 3}
	b := MatrixSpec{Kind: "randomspd", N: 100, NNZ: 6, Seed: 3}
	if a.key() != b.key() {
		t.Fatal("identical specs must share a key")
	}
	for _, other := range []MatrixSpec{
		{Kind: "randomspd", N: 101, NNZ: 6, Seed: 3},
		{Kind: "randomspd", N: 100, NNZ: 6, Seed: 4},
		{Kind: "laplacian2d", N: 100},
		{Kind: "mm", MM: "x"},
	} {
		if a.key() == other.key() {
			t.Fatalf("distinct specs collide: %+v vs %+v", a, other)
		}
	}
}

// TestMatrixSpecKeyInlineBody pins an inline body's key, shows a body of
// many hash chunks keys by the SHA-256 of all its bytes, and bounds what
// key() allocates for a 1 MB body: it must not copy the body.
func TestMatrixSpecKeyInlineBody(t *testing.T) {
	small := MatrixSpec{Kind: "mm", MM: "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 5\n"}
	if got, want := small.key(), "mm:792e570dd621f3d7"; got != want {
		t.Fatalf("inline key %s, want %s", got, want)
	}
	big := MatrixSpec{Kind: "mm", MM: strings.Repeat("12 7 0.5\n", 1<<20/9+1)}
	sum := sha256.Sum256([]byte(big.MM))
	if got, want := big.key(), "mm:"+hex.EncodeToString(sum[:])[:16]; got != want {
		t.Fatalf("1 MB inline key %s, want %s", got, want)
	}
	if race.Enabled {
		return // allocation accounting differs under -race
	}
	const maxBytes = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	big.key()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > maxBytes {
		t.Fatalf("key() of a %d-byte body allocated %d bytes, budget %d", len(big.MM), bytes, maxBytes)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
)

// TestPrepCacheEvictionRace: with a prepared-system LRU of capacity 1,
// concurrent solves on two matrices force evictions to race in-flight
// builds and solves. The once-latch contract must hold regardless: no
// panic, every request answered, and exactly one preparation per
// prep-cache miss (an evicted entry's in-flight build completes and is
// used by its waiters; it is never re-run, and a fresh miss builds a
// fresh entry). Run under -race this is the eviction synchronization
// regression test.
func TestPrepCacheEvictionRace(t *testing.T) {
	srv := New(Config{CacheSize: 4, PrepCacheSize: 1, MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	specs := []MatrixSpec{
		{Kind: "randomspd", N: 100, NNZ: 5, Seed: 31},
		{Kind: "randomspd", N: 100, NNZ: 5, Seed: 32},
	}
	methods := []string{"asyrgs", "kaczmarz"}
	prepsBefore := core.PrepCount() + kaczmarz.PrepCount()

	const clients, perClient = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Independent parities cover the full 2 matrices × 2 methods
				// cross product of prep keys within every client.
				spec, methodName := specs[i%2], methods[(c+i/2)%2]
				budget := 2000
				if methodName == "kaczmarz" {
					budget = 80000
				}
				body, _ := json.Marshal(SolveRequest{
					Matrix: spec, Method: methodName,
					Tol: 1e-6, MaxSweeps: budget, Workers: 2,
					RHSSeed: uint64(c*perClient + i),
				})
				resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out SolveResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d req %d: status %d", c, i, resp.StatusCode)
					return
				}
				if !out.Converged {
					errs <- fmt.Errorf("client %d req %d did not converge: %+v", c, i, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var stats Stats
	getJSON(t, ts, "/stats", &stats)
	if stats.Solved != clients*perClient {
		t.Fatalf("solved %d, want %d", stats.Solved, clients*perClient)
	}
	// Four distinct prep keys (2 matrices × 2 methods) through a cache of
	// one entry: eviction must have churned.
	if stats.PrepCache.Misses < 4 {
		t.Fatalf("prep cache never churned: %+v", stats.PrepCache)
	}
	if stats.PrepCache.Size != 1 {
		t.Fatalf("prep cache exceeded its capacity: %+v", stats.PrepCache)
	}
	if stats.PrepCache.Evictions != stats.PrepCache.Misses-1 {
		t.Fatalf("every miss beyond the first must evict: %+v", stats.PrepCache)
	}
	// The exactness invariant: one preparation per miss, none double-run
	// by an eviction racing the build, none lost.
	prepped := core.PrepCount() + kaczmarz.PrepCount() - prepsBefore
	if prepped != stats.PrepCache.Misses {
		t.Fatalf("preparations (%d) != prep-cache misses (%d): eviction raced a build",
			prepped, stats.PrepCache.Misses)
	}
}

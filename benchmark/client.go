package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/asynclinalg/asyrgs/internal/serve"
)

// Outside-in correctness limits. The daemon reports its own residual; the
// client additionally bounds the A-norm error the daemon reports for
// generated right-hand sides, and recomputes the upload residual from its
// own matrix, where only summation order separates the two computations.
const (
	maxANormErr  = 1e-3
	recheckSlack = 1.001
)

// checkReply validates one /solve reply: HTTP 200, every right-hand side
// converged with residual ≤ tol, and for an upload the client's own
// ‖b − A·x‖/‖b‖ within tolerance.
func checkReply(req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return checkResponse(req, &resp)
}

func checkResponse(req request, resp *serve.SolveResponse) error {
	if req.rhs > 1 {
		if len(resp.Batch) != req.rhs {
			return fmt.Errorf("batch reply has %d entries, sent %d right-hand sides", len(resp.Batch), req.rhs)
		}
		for k, e := range resp.Batch {
			if !e.Converged || !(e.Residual <= req.tol) {
				return fmt.Errorf("bs[%d] %s: converged=%v residual=%g > tol %g", k, resp.Method, e.Converged, e.Residual, req.tol)
			}
		}
	} else if !resp.Converged || !(resp.Residual <= req.tol) {
		return fmt.Errorf("%s: converged=%v residual=%g, tol %g", resp.Method, resp.Converged, resp.Residual, req.tol)
	}
	if resp.ANormErr != nil && !(*resp.ANormErr <= maxANormErr) {
		return fmt.Errorf("%s: A-norm error %g > %g", resp.Method, *resp.ANormErr, maxANormErr)
	}
	if req.mm != nil {
		if len(resp.X) != req.mm.n {
			return fmt.Errorf("upload reply carries %d solution entries, want %d", len(resp.X), req.mm.n)
		}
		if r := req.mm.relResidual(req.b, resp.X); !(r <= req.tol*recheckSlack) {
			return fmt.Errorf("upload: recomputed residual %g > tol %g (daemon reported %g)", r, req.tol, resp.Residual)
		}
	}
	return nil
}

// newHTTPClient returns a client holding at most one connection per
// closed-loop client. Its timeout keeps a wedged daemon from stalling a
// run: the slowest workload's requests take well under a second.
func newHTTPClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// post sends one /solve request and reads the whole reply.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// warmUp sends each client's pre-generated requests in order, the clients
// concurrently, and fails on the first bad reply: a workload whose warm-up
// fails measures nothing.
func warmUp(ctx context.Context, hc *http.Client, url string, reqs [][]request) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range reqs[c] {
				status, body, err := post(ctx, hc, url, rq.body)
				if err == nil {
					err = checkReply(rq, status, body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up request: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// loopResult is what one closed-loop window measured from the client side.
type loopResult struct {
	latenciesMS []float64 // completed requests, in completion order per client
	attempted   int
	failed      int
	firstErr    error
	// elapsed runs from the window's start until the last client's last
	// reply; think sums each client's own time generating requests and
	// checking replies, which is not the daemon's.
	elapsed time.Duration
	think   time.Duration
}

// add pools another window's measurements into r.
func (r *loopResult) add(o loopResult) {
	r.latenciesMS = append(r.latenciesMS, o.latenciesMS...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.elapsed += o.elapsed
	r.think += o.think
}

// throughput is completed requests per second of the window, with the
// clients' mean think time taken out.
func (r loopResult) throughput(clients int) float64 {
	busy := r.elapsed - r.think/time.Duration(clients)
	return float64(len(r.latenciesMS)) / busy.Seconds()
}

// closedLoop runs one client goroutine per generator for dur: each sends
// its next request only after the previous reply arrived and was checked.
// A request started before the window closes is waited for and counted.
func closedLoop(ctx context.Context, hc *http.Client, url string, gens []func() request, dur time.Duration) loopResult {
	perClient := make([]loopResult, len(gens))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := &perClient[c]
			for time.Since(start) < dur && ctx.Err() == nil {
				t := time.Now()
				rq := gens[c]()
				t0 := time.Now()
				status, body, err := post(ctx, hc, url, rq.body)
				lat := time.Since(t0)
				if err == nil {
					err = checkReply(rq, status, body)
				}
				cr.think += t0.Sub(t) + time.Since(t0.Add(lat))
				cr.attempted++
				if err != nil {
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = err
					}
					continue
				}
				cr.latenciesMS = append(cr.latenciesMS, float64(lat)/float64(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for _, cr := range perClient {
		out.add(cr)
	}
	return out
}

// roundSamples rounds latency samples to 0.1 µs for the result file.
func roundSamples(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/asynclinalg/asyrgs/internal/stats"
)

// LatencySummary reports one latency histogram's headline numbers in
// microseconds: streaming mean plus interpolated percentiles over the
// power-of-two buckets. MaxUS is the upper edge of the highest occupied
// bucket (an upper bound on the worst observation, not the observation
// itself).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// summarize condenses one histogram snapshot. The snapshot is taken in a
// single atomic pass, so the percentiles are internally consistent; the
// separately-read sum can lag it by in-flight observations, which skews
// the transient mean by at most those requests — the counters themselves
// are never torn.
func summarize(snap stats.Pow2Histogram, sumUS uint64) LatencySummary {
	s := LatencySummary{Count: snap.Total()}
	if s.Count == 0 {
		return s
	}
	s.MeanUS = float64(sumUS) / float64(s.Count)
	s.P50US = snap.Quantile(0.50)
	s.P95US = snap.Quantile(0.95)
	s.P99US = snap.Quantile(0.99)
	s.MaxUS = float64(snap.QuantileUpperBound(1))
	return s
}

// endpoints are the histogram-tracked routes, fixed at construction so
// request handling needs no map writes (the histograms themselves are
// lock-free).
var endpoints = []string{"/solve", "/methods", "/healthz", "/stats", "/metrics"}

// timed wraps a handler, recording its wall time in microseconds into
// the endpoint's latency histogram. It is also the outermost panic
// backstop: the solve and cache paths contain their own panics, so
// anything reaching here is a handler-level fault — counted, answered
// 500 when the response has not started, and never fatal to the daemon.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.endpointLat[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.errs.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					map[string]string{"error": fmt.Sprintf("internal panic: %v", rec)})
			}
			hist.Observe(uint64(time.Since(start).Microseconds()))
		}()
		h(w, r)
	}
}

// handleMetrics serves the counters and latency histograms in Prometheus
// text exposition format. Histogram buckets reuse the power-of-two
// microsecond buckets: bucket k's upper edge is 2^k µs, rendered as
// seconds the way Prometheus duration histograms expect.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.counterSnapshot()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("asyrgsd_requests_total", "Solve requests received.", st.Requests)
	counter("asyrgsd_solved_total", "Solve requests answered with a well-formed result.", st.Solved)
	counter("asyrgsd_errors_total", "Requests failed with a client or solve error.", st.Errors)
	counter("asyrgsd_rejected_total", "Requests shed at the admission gate.", st.Rejected)
	counter("asyrgsd_panics_total", "Worker panics contained by the serving layer.", st.Panics)
	counter("asyrgsd_batches_total", "Solves run behind the admission gate, one per admitted request.", st.Batches)
	counter("asyrgsd_coalesced_requests_total", "Right-hand sides of explicit bs requests with more than one column.", st.CoalescedRequests)

	fmt.Fprintf(&b, "# HELP asyrgsd_in_flight Solve items currently executing.\n# TYPE asyrgsd_in_flight gauge\nasyrgsd_in_flight %d\n", st.InFlight)
	fmt.Fprintf(&b, "# HELP asyrgsd_uptime_seconds Daemon uptime.\n# TYPE asyrgsd_uptime_seconds gauge\nasyrgsd_uptime_seconds %g\n", st.UptimeSec)

	fmt.Fprintf(&b, "# HELP asyrgsd_cache_events_total Session-cache events by cache and kind.\n# TYPE asyrgsd_cache_events_total counter\n")
	for _, c := range []struct {
		name string
		cs   CacheStats
	}{{"matrix", st.Cache}, {"prepared", st.PrepCache}} {
		fmt.Fprintf(&b, "asyrgsd_cache_events_total{cache=%q,event=\"hit\"} %d\n", c.name, c.cs.Hits)
		fmt.Fprintf(&b, "asyrgsd_cache_events_total{cache=%q,event=\"miss\"} %d\n", c.name, c.cs.Misses)
		fmt.Fprintf(&b, "asyrgsd_cache_events_total{cache=%q,event=\"eviction\"} %d\n", c.name, c.cs.Evictions)
		fmt.Fprintf(&b, "asyrgsd_cache_events_total{cache=%q,event=\"drop\"} %d\n", c.name, c.cs.Drops)
		fmt.Fprintf(&b, "asyrgsd_cache_events_total{cache=%q,event=\"evict_skip\"} %d\n", c.name, c.cs.EvictSkips)
	}

	fmt.Fprintf(&b, "# HELP asyrgsd_method_requests_total Solved requests by registry method.\n# TYPE asyrgsd_method_requests_total counter\n")
	for _, name := range sortedKeys(st.PerMethod) {
		fmt.Fprintf(&b, "asyrgsd_method_requests_total{method=%q} %d\n", name, st.PerMethod[name])
	}

	fmt.Fprintf(&b, "# HELP asyrgsd_request_duration_seconds Request wall time by endpoint.\n# TYPE asyrgsd_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		h := s.endpointLat[ep]
		promHistogram(&b, "asyrgsd_request_duration_seconds", "endpoint", ep, h.Snapshot(), h.Sum())
	}

	fmt.Fprintf(&b, "# HELP asyrgsd_method_duration_seconds Solve request wall time by registry method.\n# TYPE asyrgsd_method_duration_seconds histogram\n")
	for _, name := range sortedKeys(s.methodLat) {
		h := s.methodLat[name]
		if snap := h.Snapshot(); snap.Total() > 0 {
			promHistogram(&b, "asyrgsd_method_duration_seconds", "method", name, snap, h.Sum())
		}
	}

	fmt.Fprintf(&b, "# HELP asyrgsd_stage_duration_seconds Solve request wall time by processing stage.\n# TYPE asyrgsd_stage_duration_seconds histogram\n")
	for _, st := range stageNames {
		h := s.stageLat[st]
		promHistogram(&b, "asyrgsd_stage_duration_seconds", "stage", st, h.Snapshot(), h.Sum())
	}

	fmt.Fprintf(&b, "# HELP asyrgsd_sizeband_duration_seconds Solved request wall time by matrix size band.\n# TYPE asyrgsd_sizeband_duration_seconds histogram\n")
	for _, band := range bandNames {
		h := s.bandLat[band]
		promHistogram(&b, "asyrgsd_sizeband_duration_seconds", "band", band, h.Snapshot(), h.Sum())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// promHistogram renders one labelled histogram series: cumulative bucket
// counts at the power-of-two upper edges (µs converted to seconds), the
// +Inf bucket, the observation sum and the count.
func promHistogram(b *strings.Builder, metric, label, lv string, snap stats.Pow2Histogram, sumUS uint64) {
	var cum uint64
	for k, c := range snap.Counts {
		cum += c
		le := 0.0
		if k > 0 {
			le = math.Ldexp(1, k) / 1e6
		}
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"%g\"} %d\n", metric, label, lv, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", metric, label, lv, cum)
	fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", metric, label, lv, float64(sumUS)/1e6)
	fmt.Fprintf(b, "%s_count{%s=%q} %d\n", metric, label, lv, cum)
}

// sortedKeys returns a map's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

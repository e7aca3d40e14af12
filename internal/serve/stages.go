package serve

// Per-stage request timing. handleSolve (server.go) runs a request
// through one function per stage, and each timed stage records its own
// span, into one lock-free power-of-two histogram per stage
// (microseconds, like the endpoint and per-method latencies):
//
//	build    — materializing the matrix (cache hits record ~0)
//	prepare  — the method's Prepare phase (prep-cache hits record ~0)
//	queue    — from solve-ready to solve-start: the admission-gate wait
//	solve    — the solve itself (SolveBatch for an explicit bs request)
//	respond  — assembling and writing the JSON response
//
// The stages are disjoint sub-intervals of the handler, so per request
// their sum is bounded by the /solve endpoint latency (what is left out
// is the fixed request machinery: body decode, validation, RHS
// generation). TestStatsStagesBlock asserts that consistency.
// Summaries appear as the "stages" block of GET /stats; the raw
// cumulative histograms as asyrgsd_stage_duration_seconds on /metrics.

import (
	"time"
)

// stageNames fixes the stage set and its exposition order.
var stageNames = []string{"build", "prepare", "queue", "solve", "respond"}

// observeStage records the stage that began at start and returns its
// duration. The histogram map is built complete at construction, so the
// lookup needs no lock.
func (s *Server) observeStage(stage string, start time.Time) time.Duration {
	d := time.Since(start)
	s.stageLat[stage].ObserveDuration(d)
	return d
}

// stageSummaries builds the /stats stages block: every stage always
// appears, so dashboards see a stable shape from the first request.
func (s *Server) stageSummaries() map[string]LatencySummary {
	out := make(map[string]LatencySummary, len(stageNames))
	for _, st := range stageNames {
		h := s.stageLat[st]
		out[st] = summarize(h.Snapshot(), h.Sum())
	}
	return out
}

package main

import (
	"github.com/asynclinalg/asyrgs/internal/serve"
)

// stageMeanMS returns the mean duration in milliseconds of one /stats stage
// over the requests recorded between two snapshots.
func stageMeanMS(st0, st1 serve.Stats, stage string) float64 {
	a, b := st0.Stages[stage], st1.Stages[stage]
	n := float64(b.Count) - float64(a.Count)
	if n <= 0 {
		return 0
	}
	sumUS := b.MeanUS*float64(b.Count) - a.MeanUS*float64(a.Count)
	return sumUS / n / 1000
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics combines the daemon's /stats deltas over the untraced
// window (whose client mean latency is latencyMS) with the traced replay.
func layerMetrics(st0, st1 serve.Stats, latencyMS float64, tr traceResult) map[string]float64 {
	v := map[string]float64{}
	var staged float64
	for _, stage := range []string{"build", "prepare", "queue", "solve", "respond"} {
		m := stageMeanMS(st0, st1, stage)
		v["serve.stage."+stage+"_ms"] = m
		staged += m
	}
	v["serve.unstaged_ms"] = latencyMS - staged
	hits := st1.Cache.Hits - st0.Cache.Hits
	v["serve.cache_hit_ratio"] = ratio(hits, hits+st1.Cache.Misses-st0.Cache.Misses)
	prepHits := st1.PrepCache.Hits - st0.PrepCache.Hits
	v["serve.prep_hit_ratio"] = ratio(prepHits, prepHits+st1.PrepCache.Misses-st0.PrepCache.Misses)
	solved := st1.Solved - st0.Solved
	v["serve.batch_width"] = ratio(solved, st1.Batches-st0.Batches)
	v["serve.coalesced_share"] = ratio(st1.CoalescedRequests-st0.CoalescedRequests, solved)
	v["serve.rejected"] = float64(st1.Rejected - st0.Rejected)

	self, reqBytes, respBytes := tr.layerMeans()
	var traced float64
	for _, name := range layerSpans {
		v[name+"_ms"] = self[name]
		traced += self[name]
	}
	v["serve.request_bytes"] = reqBytes
	v["serve.response_bytes"] = respBytes
	s := tr.solve
	v["sparse.nnz"] = ratio(uint64(s.nnz), uint64(tr.requests))
	v["method.sweeps"] = ratio(uint64(s.sweeps), uint64(s.rhs))
	v["method.ns_per_iter"] = self["method.solve"] * 1e6 * float64(tr.requests) / float64(max(s.iterations, 1))
	v["method.bytes_per_iter"] = s.computedBytes / float64(max(s.iterations, 1))
	v["method.converged_share"] = ratio(uint64(s.converged), uint64(s.rhs))
	v["runtime.alloc_kb_per_req"] = float64(tr.allocBytes) / 1024 / float64(max(tr.requests, 1))
	v["runtime.gc_cycles"] = float64(tr.gcCycles)
	v["trace.unattributed_ms"] = latencyMS - traced
	v["trace.overhead_ms"] = tr.overheadMS
	return v
}

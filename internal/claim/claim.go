// Package claim runs the chunked iteration-claiming loop shared by the
// asynchronous coordinate solvers (core, kaczmarz, lsq) and sizes its
// chunks. Run fans the workers out over a range of global iteration
// indices; a worker grabs a block of indices from the shared atomic
// counter per add instead of one, taking the counter off the critical
// path. One definition keeps the loop and its heuristic from drifting
// across the solver families. L2CacheBytes probes the per-core L2 size;
// only the benchmark's environment stamp reads it.
package claim

// maxChunkCap bounds a worker's direction buffer (one int32 per chunk
// index) at 16 KB however large the claimed range.
const maxChunkCap = 4096

// SizeFor resolves the claiming granularity. An explicit positive size
// wins, clamped to [1, min(max(total, 1), maxChunkCap)]: a chunk larger
// than the claimed range already claims all of it. Otherwise the chunk is
// total/(workers·16) — large enough that the shared counter stops being
// the bottleneck, small enough that P workers strand at most a few
// percent of the budget in partially-unfinished chunks at the tail —
// clamped to [1, maxChunkCap].
func SizeFor(explicit int, total uint64, workers int) int {
	if explicit > 0 {
		return int(min(uint64(explicit), max(total, 1), maxChunkCap))
	}
	workers = max(workers, 1)
	return int(max(min(total/uint64(workers*16), maxChunkCap), 1))
}

// Package claim sizes the chunked iteration-claiming granularity shared
// by the asynchronous coordinate solvers (core, kaczmarz, lsq): a
// worker grabs a block of global iteration indices from the shared
// atomic counter per CAS instead of one, taking the counter off the
// critical path. One definition keeps the heuristic from drifting
// across the solver families.
package claim

// Size resolves the claiming granularity with the legacy fixed [1, 256]
// clamp, for callers that cannot estimate their per-iteration footprint.
// It is SizeFor with rowBytes = 0.
func Size(explicit int, total uint64, workers int) int {
	return SizeFor(explicit, total, workers, 0)
}

// SizeFor resolves the claiming granularity. An explicit positive size
// wins, clamped to [1, max(total, 1)]: a chunk larger than the claimed
// range already claims all of it, and the clamp keeps a worker's
// direction buffer (one int32 per chunk index) bounded by the range.
// Otherwise the chunk is total/(workers·16) — large enough that the
// shared counter stops being the bottleneck, small enough that P workers
// strand at most a few percent of the budget in partially-unfinished
// chunks at the tail — clamped to [1, MaxChunk(rowBytes)] so the
// bulk-generated direction buffer plus the row slices one chunk touches
// stay resident in L2 while the worker streams through them (see
// probe.go). rowBytes is the caller's estimate of bytes touched per
// iteration (mean row values + indices + iterate/rhs entries); rowBytes
// <= 0 falls back to the legacy 256-iteration cap.
func SizeFor(explicit int, total uint64, workers int, rowBytes int) int {
	if explicit > 0 {
		return int(min(uint64(explicit), max(total, 1)))
	}
	if workers < 1 {
		workers = 1
	}
	k := int(total / uint64(workers*16))
	cap := MaxChunk(rowBytes)
	switch {
	case k < 1:
		return 1
	case k > cap:
		return cap
	}
	return k
}

// Package claim runs the chunked iteration-claiming loop shared by the
// asynchronous coordinate solvers (core, kaczmarz, lsq) and sizes its
// chunks. Run fans the workers out over a range of global iteration
// indices; a worker grabs a block of indices from the shared atomic
// counter per add instead of one, taking the counter off the critical
// path. One definition keeps the loop and its heuristic from drifting
// across the solver families.
package claim

// SizeFor resolves the claiming granularity. An explicit positive size
// wins, clamped to [1, min(max(total, 1), maxChunkCap)]: a chunk larger
// than the claimed range already claims all of it, and the cap bounds a
// worker's direction buffer (one int32 per chunk index) at 16 KB however
// large the range. Otherwise the chunk is total/(workers·16) — large
// enough that the shared counter stops being the bottleneck, small enough
// that P workers strand at most a few percent of the budget in
// partially-unfinished chunks at the tail — clamped to
// [1, MaxChunk(rowBytes)] so the bulk-generated direction buffer plus the
// row slices one chunk touches stay resident in L2 while the worker
// streams through them (see probe.go). rowBytes is the caller's estimate
// of bytes touched per iteration (mean row values + indices +
// iterate/rhs entries); rowBytes <= 0 falls back to the legacy
// 256-iteration cap.
func SizeFor(explicit int, total uint64, workers int, rowBytes int) int {
	if explicit > 0 {
		return int(min(uint64(explicit), max(total, 1), maxChunkCap))
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

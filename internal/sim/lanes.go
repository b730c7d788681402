package sim

import (
	"runtime"
	"sort"
	"sync"
)

// Lane scheduling for the partitioned engine.
//
// A "lane" is one worker goroutine of a single run. Lanes never touch the
// event trajectory — the discrete-event loop is inherently sequential
// because policies observe global state (ready set, processor availability)
// at every decision point, so any reordering would change the schedule
// itself. What lanes do parallelise are the trajectory-independent phases
// around the loop: schedule validation (per-kernel lifecycle checks and
// per-processor occupancy scans), latency-array assembly and the public
// result conversion. Those phases are embarrassingly parallel over kernels
// or processors.
//
// # Determinism invariant
//
// Every lane-parallel phase must produce byte-identical output for every
// lane count, including 1 (the serial engine). Three rules enforce that:
//
//  1. Lanes only write to disjoint index ranges of preallocated slices —
//     concatenation in chunk order then equals the serial fill, because
//     chunks tile [0, n) ascending and within-chunk order is index order.
//  2. Floating-point reductions (λ totals, per-processor time sums) stay on
//     one goroutine in kernel-ID order: float addition does not
//     reassociate, so chunked partial sums would drift by an ulp and break
//     byte-identity with the serial engine. Integer reductions and float
//     max/min are exact and may be merged per lane.
//  3. Anything ordered by value (sorted latency arrays) may be sorted in
//     shards and merged: the sorted result is a pure function of the
//     multiset, not of the algorithm.
//
// The reducer side is sequence-stamped: laneChunks fixes each chunk's
// [lo, hi) span up front, every lane tags its partial output with the chunk
// index it covers, and merges always run in ascending chunk order on the
// caller's goroutine.
type laneChunk struct {
	lane   int // sequence stamp: chunk index in [0, lanes)
	lo, hi int // half-open index span
}

// normLanes clamps a requested lane count to [1, n]. The convention is
// uniform across the package and the public facade: 0 or 1 run serial
// (the default), > 1 uses that many lanes, < 0 takes one lane per CPU.
func normLanes(lanes, n int) int {
	if lanes < 0 {
		lanes = runtime.NumCPU()
	}
	if lanes > n {
		lanes = n
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// laneChunks splits [0, n) into `lanes` contiguous chunks differing in
// length by at most one, each stamped with its sequence index.
func laneChunks(n, lanes int) []laneChunk {
	lanes = normLanes(lanes, n)
	chunks := make([]laneChunk, lanes)
	q, r := n/lanes, n%lanes
	lo := 0
	for i := range chunks {
		hi := lo + q
		if i < r {
			hi++
		}
		chunks[i] = laneChunk{lane: i, lo: lo, hi: hi}
		lo = hi
	}
	return chunks
}

// parallelChunks runs fn over the stamped chunks of [0, n), one goroutine
// per chunk, and blocks until all lanes finish. With one lane (or tiny n)
// it calls fn inline — the serial engine is exactly the lanes=1 case, not a
// separate code path. fn must confine its writes to the chunk's span (or to
// per-lane state indexed by the sequence stamp).
func parallelChunks(n, lanes int, fn func(c laneChunk)) {
	if n <= 0 {
		return
	}
	if normLanes(lanes, n) == 1 {
		// Serial fast path: no chunk slice, no goroutines, no allocation.
		fn(laneChunk{lane: 0, lo: 0, hi: n})
		return
	}
	chunks := laneChunks(n, lanes)
	var wg sync.WaitGroup
	wg.Add(len(chunks) - 1)
	for _, c := range chunks[1:] {
		go func(c laneChunk) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	fn(chunks[0])
	wg.Wait()
}

// parallelSortFloat64s sorts xs ascending with `lanes` shard sorts followed
// by a k-way merge into scratch, returning the sorted slice (scratch grown
// as needed; with one lane xs is sorted in place and returned directly).
// The sorted array is a pure function of the multiset — shard boundaries
// and merge tie-breaks cannot change which float64 bits land where — so the
// result is byte-identical to a serial sort for every lane count.
func parallelSortFloat64s(xs, scratch []float64, lanes int) (sorted, spare []float64) {
	if normLanes(lanes, len(xs)) == 1 {
		sort.Float64s(xs)
		return xs, scratch
	}
	chunks := laneChunks(len(xs), lanes)
	parallelChunks(len(xs), lanes, func(c laneChunk) {
		sort.Float64s(xs[c.lo:c.hi])
	})
	scratch = grow(scratch, len(xs))
	// K-way merge by repeated head selection: the shard count is the lane
	// count (single digits), so a heap would cost more than it saves.
	heads := make([]int, len(chunks))
	for i, c := range chunks {
		heads[i] = c.lo
	}
	for out := 0; out < len(xs); out++ {
		best := -1
		for i, c := range chunks {
			if heads[i] >= c.hi {
				continue
			}
			if best < 0 || xs[heads[i]] < xs[heads[best]] {
				best = i
			}
		}
		scratch[out] = xs[heads[best]]
		heads[best]++
	}
	return scratch, xs
}

// ParallelOver shards [0, n) across `lanes` contiguous chunks and runs fn
// on each, blocking until all finish (0 or 1 lanes run fn inline over the
// whole range). It exposes the engine's lane scheduler to result-assembly
// code outside this package; fn must confine its writes to [lo, hi), which
// keeps the concatenated output byte-identical to a serial fill.
func ParallelOver(n, lanes int, fn func(lo, hi int)) {
	parallelChunks(n, lanes, func(c laneChunk) { fn(c.lo, c.hi) })
}

// laneError is one lane's first failure, stamped with the global index it
// occurred at so the merged error is the lowest-index one — the same error
// the serial scan would have reported, for any lane count.
type laneError struct {
	at  int
	err error
}

// firstLaneError merges per-lane failures deterministically: the error with
// the smallest stamp wins; entries with nil err are ignored.
func firstLaneError(errs []laneError) error {
	best := -1
	for i := range errs {
		if errs[i].err == nil {
			continue
		}
		if best < 0 || errs[i].at < errs[best].at {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return errs[best].err
}

package core

import (
	"runtime"

	"lakenav/internal/parallel"
)

// The evaluator's per-query loops are embarrassingly parallel — each
// query owns its reach row — so they run on a bounded pool of
// goroutines. Results are deterministic regardless of worker count:
// every worker writes only to index ranges it owns, and reductions
// happen serially afterwards in query order.

// serialWorkFloor is the approximate cell count (queries × states
// touched) below which forking goroutines costs more than it saves and
// the loops run serially. Reevaluate after a well-pruned operation
// touches a handful of states; spawning workers for that would slow the
// optimizer's inner loop down.
const serialWorkFloor = 2048

// resolveWorkers maps a configured pool size to an effective one:
// non-positive selects GOMAXPROCS.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ParallelFor runs fn over the contiguous chunks of [0, n) on up to
// GOMAXPROCS goroutines and returns when all chunks are done. It is the
// exported form of the evaluator's pool for other read-only fan-outs
// (the serving layer's batched evaluation): fn must confine its writes
// to index ranges it owns, which keeps results deterministic for every
// pool size.
func ParallelFor(n int, fn func(lo, hi int)) {
	parallelFor(n, runtime.GOMAXPROCS(0), fn)
}

// parallelFor runs fn over the contiguous chunks of [0, n) on up to
// workers goroutines and returns when all chunks are done. workers <= 1
// (or n <= 1) degenerates to a plain serial call on the calling
// goroutine.
func parallelFor(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Inlined serial path: wrapping fn for parallelForWorkers would
		// allocate a closure, and this path is pinned allocation-free.
		metricParallelRuns.Inc()
		metricParallelSerial.Inc()
		fn(0, n)
		return
	}
	parallelForWorkers(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// parallelForWorkers is parallelFor with the worker's slot index passed
// to fn, so callers can hand each fork a dedicated scratch buffer
// (worker w and only worker w touches scratch slot w). The chunking is
// parallel.For's, shared with the lake's topic kernel; this wrapper
// adds the core.parallel.* metrics.
func parallelForWorkers(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	metricParallelRuns.Inc()
	if forks := parallel.For(n, workers, fn); forks > 1 {
		metricParallelForks.Add(uint64(forks))
	} else {
		metricParallelSerial.Inc()
	}
}

// Package parallel is the fixed-chunk fan-out shared by the evaluator's
// worker pool (internal/core), the lake's topic kernel (internal/lake)
// and the cosine distance matrix (internal/cluster). It is a leaf
// package so all of them can import it: core's wrappers add the
// core.parallel.* metrics on top, the others use it bare.
package parallel

import "sync"

// For runs fn over the contiguous chunks of [0, n) on up to workers
// goroutines and returns when all chunks are done. The worker's slot
// index is passed to fn, so callers can hand each fork a dedicated
// scratch buffer (worker w and only worker w touches slot w). Each
// worker runs exactly one contiguous chunk, so the slot index is also
// the fork index. workers <= 1 (or n <= 1) degenerates to one serial
// call as slot 0 on the calling goroutine.
//
// Chunk boundaries depend only on n and workers. fn must confine its
// writes to the index range it is handed; results are then the same for
// every worker count.
//
// For returns the number of chunks it ran: 0 when n <= 0, 1 when it ran
// serially, and more than 1 exactly when it forked.
func For(n, workers int, fn func(w, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return 1
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	w := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
		w++
	}
	wg.Wait()
	return w
}

// Workers sizes a pool to the work at hand: one goroutine per floor
// units of estimated work, capped at limit. Work below the floor runs
// serially (1): coarse chunks beat fine ones, since a fork must
// amortize its scheduling and cache-warmup cost over real work, and
// each admitted goroutine is guaranteed at least a floor's worth.
func Workers(work, floor, limit int) int {
	if work < floor || limit <= 1 {
		return 1
	}
	if byWork := work / floor; byWork < limit {
		return byWork
	}
	return limit
}

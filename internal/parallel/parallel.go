// Package parallel is the fixed-chunk fan-out shared by the evaluator's
// worker pool (internal/core) and the lake's topic kernel
// (internal/lake). It is a leaf package so both can import it: core's
// wrappers add the core.parallel.* metrics on top, lake uses it bare.
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

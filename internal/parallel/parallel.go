// Package parallel is the repository's one worker pool: an index range cut
// into chunks that goroutines take on demand. Builders, trainers and batch
// searches use it so that a slow chunk (a hard out-of-distribution query,
// a subspace that converges late) never leaves a core idle the way a fixed
// half-and-half split does.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines For(workers, n, chunk, ...) runs:
// workers (GOMAXPROCS when ≤ 0), capped at the number of chunks, and at
// least 1. Callers size their per-worker scratch with it and pass the
// result to For as workers, so a GOMAXPROCS change in between cannot
// hand For more workers than there is scratch.
func Workers(workers, n, chunk int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk = max(chunk, 1)
	if chunks := (n + chunk - 1) / chunk; workers > chunks {
		workers = chunks
	}
	return max(workers, 1)
}

// For covers [0, n) with fn(w, lo, hi) calls over disjoint chunks of chunk
// items (the last may be shorter), handed out in ascending order to
// Workers(workers, n, chunk) goroutines as each finishes its previous
// chunk, and returns when all are done. w in [0, Workers(...)) names the
// goroutine making the call, so fn can index per-worker scratch; calls
// with the same w never overlap. Which worker runs which chunk is
// unspecified, so callers keep chunks independent and the result is not.
// With one worker fn runs on the calling goroutine as fn(0, 0, n).
func For(workers, n, chunk int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk = max(chunk, 1)
	workers = Workers(workers, n, chunk)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				fn(w, lo, min(lo+chunk, n))
			}
		}(w)
	}
	wg.Wait()
}

package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index is covered exactly once, whatever the worker count, chunk
// size and GOMAXPROCS, and each call's worker index is in range.
func TestForCoversRangeOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 3, 100} {
			for _, n := range []int{0, 1, 7, 64, 1000} {
				for _, chunk := range []int{0, 1, 5, 256} {
					hits := make([]atomic.Int32, n)
					nw := Workers(workers, n, chunk)
					For(workers, n, chunk, func(w, lo, hi int) {
						if w < 0 || w >= nw {
							t.Errorf("worker %d outside [0, %d)", w, nw)
						}
						for i := lo; i < hi; i++ {
							hits[i].Add(1)
						}
					})
					for i := range hits {
						if c := hits[i].Load(); c != 1 {
							t.Fatalf("procs=%d workers=%d n=%d chunk=%d: index %d covered %d times", procs, workers, n, chunk, i, c)
						}
					}
				}
			}
		}
	}
}

// Calls sharing a worker index never overlap, which is what makes
// per-worker scratch safe; the race detector checks the unsynchronised
// scratch writes below.
func TestForWorkerScratchIsExclusive(t *testing.T) {
	const n = 2000
	scratch := make([][]int, Workers(0, n, 1))
	var sum atomic.Int64
	For(0, n, 1, func(w, lo, hi int) {
		s := scratch[w][:0]
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		for _, v := range s {
			sum.Add(int64(v))
		}
		scratch[w] = s
	})
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum %d, want %d", sum.Load(), want)
	}
}

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ workers, n, chunk, want int }{
		{4, 10, 1, 4},
		{4, 3, 1, 3},
		{4, 10, 4, 3},
		{4, 0, 1, 1},
		{1, 100, 1, 1},
	} {
		if got := Workers(c.workers, c.n, c.chunk); got != c.want {
			t.Errorf("Workers(%d, %d, %d) = %d, want %d", c.workers, c.n, c.chunk, got, c.want)
		}
	}
}

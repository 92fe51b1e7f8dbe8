package policy

import (
	"sync"
	"sync/atomic"
	"testing"

	"ngfix/internal/graph"
)

func q1(v float32) []float32 { return []float32{v, v + 1, v + 2, v + 3} }

func res1(id uint32) []graph.Result {
	return []graph.Result{{ID: id, Dist: 0.1}, {ID: id + 1, Dist: 0.2}, {ID: id + 2, Dist: 0.3}}
}

func TestCachePutGetCoverage(t *testing.T) {
	c := NewCache(64)
	q := q1(1)
	c.Put(q, 3, 100, res1(7), c.Generation())

	got, ok := c.Get(q, 3, 100)
	if !ok || len(got) != 3 || got[0].ID != 7 {
		t.Fatalf("exact hit: ok=%v got=%v", ok, got)
	}
	// A stored answer computed with wider k/ef covers narrower requests…
	if got, ok := c.Get(q, 2, 50); !ok || len(got) != 2 {
		t.Fatalf("narrower request not served from wider entry: ok=%v got=%v", ok, got)
	}
	// …but never wider ones: those would silently under-deliver quality.
	if _, ok := c.Get(q, 3, 200); ok {
		t.Fatal("entry served a request with larger ef than it was computed at")
	}
	if _, ok := c.Get(q1(2), 3, 100); ok {
		t.Fatal("hit for a query never stored")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheInvalidateDropsEntries(t *testing.T) {
	c := NewCache(64)
	q := q1(3)
	c.Put(q, 3, 100, res1(1), c.Generation())
	if _, ok := c.Get(q, 3, 100); !ok {
		t.Fatal("warm entry missed")
	}
	c.Invalidate()
	if _, ok := c.Get(q, 3, 100); ok {
		t.Fatal("hit across an invalidation")
	}
	// The stale entry is dropped lazily by the miss above.
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Fatalf("stats after invalidation: %+v", st)
	}
}

// TestCacheStalePutDropped pins the generation protocol: an answer whose
// generation was captured before a mutation's invalidation must never be
// stored, even though the Put runs after the bump — the exact interleaving
// of a search that raced a mutation.
func TestCacheStalePutDropped(t *testing.T) {
	c := NewCache(64)
	q := q1(4)
	gen := c.Generation() // search starts: capture
	c.Invalidate()        // mutation lands mid-search
	c.Put(q, 3, 100, res1(9), gen)
	if _, ok := c.Get(q, 3, 100); ok {
		t.Fatal("pre-mutation answer stored as fresh")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale Put left an entry: %+v", st)
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	const capacity = 32
	c := NewCache(capacity)
	// segCap rounds capacity up per segment; the hard bound is
	// segments * ceil(capacity/segments).
	bound := cacheSegments * ((capacity + cacheSegments - 1) / cacheSegments)
	for i := 0; i < 50*capacity; i++ {
		c.Put(q1(float32(i)), 3, 100, res1(uint32(i)), c.Generation())
	}
	st := c.Stats()
	if st.Entries > bound {
		t.Fatalf("cache grew past bound: %d > %d", st.Entries, bound)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded while overfilling")
	}
	// Re-putting an existing key must not evict it (victim==key safety).
	c2 := NewCache(1)
	q := q1(0)
	for i := 0; i < 3; i++ {
		c2.Put(q, 3, 100, res1(uint32(i)), c2.Generation())
	}
	if got, ok := c2.Get(q, 3, 100); !ok || got[0].ID != 2 {
		t.Fatalf("rewritten entry lost: ok=%v got=%v", ok, got)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	if c2 := NewCache(0); c2 != nil {
		t.Fatal("capacity 0 did not disable the cache")
	}
	c.Invalidate()
	c.Put(q1(0), 3, 100, res1(0), 0)
	if _, ok := c.Get(q1(0), 3, 100); ok {
		t.Fatal("nil cache hit")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
	if c.Generation() != 0 {
		t.Fatal("nil generation")
	}
}

// TestCacheConcurrentInvalidation hammers Get/Put/Invalidate from many
// goroutines (the -race target) and then checks the only cross-thread
// invariant that survives arbitrary interleaving: once the final
// invalidation completes, nothing stored before it is ever served.
func TestCacheConcurrentInvalidation(t *testing.T) {
	c := NewCache(256)
	const workers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := q1(float32((w*31 + i) % 64))
				switch i % 4 {
				case 0:
					gen := c.Generation()
					c.Put(q, 3, 100, res1(uint32(i)), gen)
				case 1:
					if res, ok := c.Get(q, 3, 100); ok && len(res) != 3 {
						t.Errorf("hit with %d results", len(res))
						return
					}
				case 2:
					c.Invalidate()
				default:
					c.Stats()
				}
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		c.Get(q1(float32(i%64)), 3, 100)
	}
	stop.Store(true)
	wg.Wait()

	c.Invalidate()
	for i := 0; i < 64; i++ {
		if _, ok := c.Get(q1(float32(i)), 3, 100); ok {
			t.Fatal("entry survived the final invalidation")
		}
	}
}

// The serving path hands Put and Record a query it may reuse the moment
// they return; each must keep its own copy.
func TestRetainedQueriesAreCopies(t *testing.T) {
	c := NewCache(64)
	q := q1(5)
	c.Put(q, 3, 100, res1(7), c.Generation())
	a := NewAdaptive(4, AdaptiveConfig{ReservoirSize: 8, MinSamples: 4}, nil)
	a.Record(q)
	for i := range q {
		q[i] = -1
	}
	if _, ok := c.Get(q1(5), 3, 100); !ok {
		t.Fatal("cache entry changed with the caller's slice")
	}
	if got, want := a.reservoir.Row(0), q1(5); got[0] != want[0] || got[3] != want[3] {
		t.Fatalf("reservoir row changed with the caller's slice: %v", got)
	}
}

// Package policy wires the paper's §7 batch-mode extensions — the
// answer cache for exactly-repeated queries, similarity-adaptive ef,
// and Gaussian query augmentation (NGFix+) — into the concurrent
// serving path. It sits between internal/server (which consults it per
// request) and internal/shard (whose mutation hooks keep it honest).
package policy

import (
	"math"
	"sync"
	"sync/atomic"

	"ngfix/internal/graph"
)

// cacheSegments is the lock-stripe count. Power of two so the segment
// pick is a mask; 16 stripes keep contention negligible at the
// concurrency levels admission admits.
const cacheSegments = 16

// Cache is the concurrent answer cache, the paper's §7 hash-table method
// for exactly-repeated queries: lock-striped segments keyed by the
// query's float32 bit patterns (QueryKey), each entry holding the full
// query vector so a hit is verified bit-for-bit — a hash collision costs
// one comparison, never a wrong answer.
//
// Staleness is handled by generation: every store mutation bumps the
// generation (Invalidate, O(1)), and entries remember the generation
// they were computed under, so a hit whose generation is behind reads
// as a miss and is dropped lazily. Writers pass the generation they
// captured *before* searching (see Generation), which closes the race
// where a search computes its answer on the pre-mutation graph but
// completes its Put after the mutation's invalidation.
type Cache struct {
	segs   [cacheSegments]cacheSegment
	segCap int
	gen    atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type cacheSegment struct {
	mu      sync.Mutex
	entries map[uint64]*cacheEntry
	// order is the FIFO eviction queue of keys in insertion order. Keys
	// whose entry was dropped lazily (stale generation) are skipped when
	// they surface at the front.
	order []uint64
}

type cacheEntry struct {
	q   []float32
	res []graph.Result
	k   int
	ef  int
	gen uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// QueryKey hashes a query's exact float32 bit patterns (FNV-1a,
// word-at-a-time). The key is a lookup accelerator, not an integrity
// check: every hit is verified with SameQuery.
func QueryKey(q []float32) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range q {
		h ^= uint64(math.Float32bits(v))
		h *= fnvPrime64
	}
	return h
}

// SameQuery reports whether two queries have identical float32 bit
// patterns — the verification a keyed hit must pass before it is
// trusted. NaN bit patterns compare equal to themselves (bit equality,
// not float equality), matching the keying.
func SameQuery(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// NewCache returns a cache bounded to roughly capacity entries
// (distributed across segments; each segment holds at most
// ceil(capacity/segments)). capacity <= 0 returns nil — callers treat
// a nil *Cache as "cache off" (every method is nil-safe).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	c := &Cache{segCap: (capacity + cacheSegments - 1) / cacheSegments}
	for i := range c.segs {
		c.segs[i].entries = make(map[uint64]*cacheEntry)
	}
	return c
}

// Generation returns the current invalidation generation. A writer
// captures it before running its search and passes it to Put, so an
// answer computed against a graph that has since mutated can never be
// stored as fresh.
func (c *Cache) Generation() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// Invalidate marks every current entry stale in O(1) by bumping the
// generation. Called from the fixers' mutation hooks — after the
// mutation is visible to searches and before the mutating call acks.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.gen.Add(1)
	c.invalidations.Add(1)
}

// Get returns the cached top-k for q if a fresh entry covers the
// request: same query bits, current generation, stored with at least
// the requested k and ef (an answer computed with a wider search list
// is at least as good as the one the caller would compute). The
// returned slice is shared — callers must not mutate it.
func (c *Cache) Get(q []float32, k, ef int) ([]graph.Result, bool) {
	if c == nil {
		return nil, false
	}
	key := QueryKey(q)
	seg := &c.segs[key&(cacheSegments-1)]
	gen := c.gen.Load()
	seg.mu.Lock()
	e, ok := seg.entries[key]
	if ok && e.gen != gen {
		delete(seg.entries, key) // stale: drop lazily, order entry skipped later
		ok = false
	}
	if ok && (!SameQuery(e.q, q) || e.k < k || e.ef < ef) {
		ok = false
	}
	var res []graph.Result
	if ok {
		res = e.res
		if len(res) > k {
			res = res[:k]
		}
	}
	seg.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return res, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores the answer for (q, k, ef) if gen is still current. res is
// copied. Evicts oldest-first when the segment is full.
func (c *Cache) Put(q []float32, k, ef int, res []graph.Result, gen uint64) {
	if c == nil || gen != c.gen.Load() {
		return // answer predates a mutation: storing it would serve stale results
	}
	key := QueryKey(q)
	seg := &c.segs[key&(cacheSegments-1)]
	e := &cacheEntry{
		q:   append([]float32(nil), q...),
		res: append([]graph.Result(nil), res...),
		k:   k,
		ef:  ef,
		gen: gen,
	}
	seg.mu.Lock()
	if _, exists := seg.entries[key]; !exists {
		seg.order = append(seg.order, key)
	}
	seg.entries[key] = e
	for len(seg.entries) > c.segCap && len(seg.order) > 0 {
		victim := seg.order[0]
		seg.order = seg.order[1:]
		if victim == key {
			seg.order = append(seg.order, key) // never evict the entry just written
			continue
		}
		if _, present := seg.entries[victim]; present {
			delete(seg.entries, victim)
			c.evictions.Add(1)
		}
	}
	seg.mu.Unlock()
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Entries       int
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Generation    uint64
}

// Stats sums the per-segment entry counts and snapshots the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Generation:    c.gen.Load(),
	}
	for i := range c.segs {
		seg := &c.segs[i]
		seg.mu.Lock()
		st.Entries += len(seg.entries)
		seg.mu.Unlock()
	}
	return st
}

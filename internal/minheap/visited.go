package minheap

// Visited is a visited-set over vertex ids [0, n): one bit per id. A beam
// search marks every vertex it scores, so the set is probed once per
// neighbour of every expanded vertex; at one bit per id it stays in the
// first-level cache (1.25 KB at 10 000 ids) while the search streams
// vector rows through it, which makes it cheaper than a per-id epoch
// stamp even though Reset clears it. Reset costs n/8 bytes of clearing —
// 125 KB, a few microseconds, at a million ids.
type Visited struct {
	bits []uint64
	n    int
}

// NewVisited returns a visited-set for ids in [0, n).
func NewVisited(n int) *Visited {
	return &Visited{bits: make([]uint64, (n+63)/64), n: n}
}

// Grow extends the id space to at least n, preserving current marks. The
// space at least doubles when it grows, so a searcher that follows a
// graph growing one insert at a time reallocates O(log n) times, not once
// per insert.
func (v *Visited) Grow(n int) {
	if n <= v.n {
		return
	}
	n = max(n, 2*v.n)
	grown := make([]uint64, (n+63)/64)
	copy(grown, v.bits)
	v.bits, v.n = grown, n
}

// Reset forgets all marks.
func (v *Visited) Reset() { clear(v.bits) }

// Visit marks id and reports whether it was already marked.
func (v *Visited) Visit(id uint32) bool {
	w, b := id>>6, uint64(1)<<(id&63)
	if v.bits[w]&b != 0 {
		return true
	}
	v.bits[w] |= b
	return false
}

// AppendUnvisited marks every id in ids and appends to dst, in order,
// those that were not marked before: one search hop's new neighbours.
func (v *Visited) AppendUnvisited(dst, ids []uint32) []uint32 {
	bits := v.bits
	for _, id := range ids {
		w, b := id>>6, uint64(1)<<(id&63)
		if bits[w]&b == 0 {
			bits[w] |= b
			dst = append(dst, id)
		}
	}
	return dst
}

// Test reports whether id is marked without marking it.
func (v *Visited) Test(id uint32) bool { return v.bits[id>>6]&(1<<(id&63)) != 0 }

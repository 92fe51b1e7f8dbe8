// Package minheap provides the selection structures around graph search:
// a bounded max-heap that keeps the k closest (id, dist) pairs seen — the
// top-k of a brute-force scan, a kNN-graph row, or the exact rerank of a
// compressed search — a min-heap, and the bitset visited set every beam
// search marks its scored vertices in. The beam search itself
// (Algorithm 1) runs on graph.Beam, one sorted candidate list, not on
// these heaps.
//
// The heaps store (id, dist) pairs inline to avoid interface boxing and
// per-push allocation; they are reused across searches through Reset.
package minheap

// Item is a graph vertex paired with its distance to the current query.
type Item struct {
	ID   uint32
	Dist float32
}

// Min is a binary min-heap on Dist. The zero value is ready to use.
type Min struct {
	items []Item
}

// NewMin returns a min-heap with storage preallocated for cap items.
func NewMin(cap int) *Min { return &Min{items: make([]Item, 0, cap)} }

// Len returns the number of items.
func (h *Min) Len() int { return len(h.items) }

// Reset empties the heap without releasing storage.
func (h *Min) Reset() { h.items = h.items[:0] }

// Push adds an item.
func (h *Min) Push(it Item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].Dist <= h.items[i].Dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

// Top returns the smallest item without removing it. It panics when empty.
func (h *Min) Top() Item { return h.items[0] }

// Pop removes and returns the smallest item. It panics when empty.
func (h *Min) Pop() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *Min) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].Dist < h.items[small].Dist {
			small = l
		}
		if r < n && h.items[r].Dist < h.items[small].Dist {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// Bounded is a max-heap on Dist holding at most Cap items: the result set
// of beam search. Pushing into a full heap replaces the current maximum if
// the new item is closer; otherwise the push is ignored.
type Bounded struct {
	items []Item
	cap   int
}

// NewBounded returns a bounded max-heap with the given capacity (≥ 1).
func NewBounded(cap int) *Bounded {
	if cap < 1 {
		panic("minheap: bounded heap needs capacity >= 1")
	}
	return &Bounded{items: make([]Item, 0, cap), cap: cap}
}

// Len returns the number of items currently held.
func (h *Bounded) Len() int { return len(h.items) }

// Cap returns the configured bound.
func (h *Bounded) Cap() int { return h.cap }

// Full reports whether the heap holds Cap items.
func (h *Bounded) Full() bool { return len(h.items) == h.cap }

// Reset empties the heap, optionally adjusting the capacity (0 keeps it).
func (h *Bounded) Reset(newCap int) {
	h.items = h.items[:0]
	if newCap > 0 {
		h.cap = newCap
		if cap(h.items) < newCap {
			h.items = make([]Item, 0, newCap)
		}
	}
}

// MaxDist returns the distance of the farthest held item, or +Inf-like
// behavior via ok=false when empty.
func (h *Bounded) MaxDist() (d float32, ok bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].Dist, true
}

// WouldAccept reports whether Push(it) would modify the heap.
func (h *Bounded) WouldAccept(dist float32) bool {
	return len(h.items) < h.cap || dist < h.items[0].Dist
}

// Push inserts it, evicting the farthest item when over capacity.
// It returns true when the heap changed.
func (h *Bounded) Push(it Item) bool {
	if len(h.items) < h.cap {
		h.items = append(h.items, it)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.items[p].Dist >= h.items[i].Dist {
				break
			}
			h.items[p], h.items[i] = h.items[i], h.items[p]
			i = p
		}
		return true
	}
	if it.Dist >= h.items[0].Dist {
		return false
	}
	h.items[0] = it
	h.siftDown(0)
	return true
}

func (h *Bounded) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.items[l].Dist > h.items[big].Dist {
			big = l
		}
		if r < n && h.items[r].Dist > h.items[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

// PopMax removes and returns the farthest item. It panics when empty.
func (h *Bounded) PopMax() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

// Items returns the held items in unspecified (heap) order, aliasing
// internal storage. The caller must not retain the slice across Push calls.
func (h *Bounded) Items() []Item { return h.items }

// SortedAscending drains the heap and returns all items ordered by
// increasing distance. The heap is empty afterwards.
func (h *Bounded) SortedAscending() []Item {
	out := make([]Item, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = h.PopMax()
	}
	return out
}

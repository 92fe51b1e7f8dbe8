package core

import "ngfix/internal/vec"

// queryRing is the fixer's pending-query buffer: a FIFO of at most capRows
// dim-wide rows. Recording a query and shedding the oldest one are both
// O(dim) — one row copy and a head bump — however large the buffer is.
// The backing slice grows on demand until it holds capRows rows and is
// overwritten in place from then on. Not safe for concurrent use; the
// fixer guards it with qmu.
type queryRing struct {
	data         []float32 // len(data)/dim row slots
	dim, capRows int
	head, count  int // oldest row's slot; rows held
}

func (r *queryRing) slots() int { return len(r.data) / r.dim }

// full reports whether the next push needs a dropOldest first.
func (r *queryRing) full() bool { return r.count == r.capRows }

func (r *queryRing) row(i int) []float32 {
	s := (r.head + i) % r.slots()
	return r.data[s*r.dim : (s+1)*r.dim]
}

// push appends a copy of q as the newest row. The ring must not be full.
func (r *queryRing) push(q []float32) {
	if len(q) != r.dim {
		panic("core: query dimension mismatch")
	}
	if r.count == r.slots() {
		r.grow()
	}
	r.count++
	copy(r.row(r.count-1), q)
}

// grow doubles the slot count (capped at capRows), re-laying the rows out
// oldest-first from slot 0.
func (r *queryRing) grow() {
	n := 2 * r.slots()
	if n < 16 {
		n = 16
	}
	if n > r.capRows {
		n = r.capRows
	}
	if n <= r.count {
		panic("core: push on a full query ring")
	}
	data := make([]float32, n*r.dim)
	r.copyOldest(data, r.count)
	r.data, r.head = data, 0
}

// dropOldest discards the oldest row.
func (r *queryRing) dropOldest() {
	r.head = (r.head + 1) % r.slots()
	r.count--
}

// copyOldest copies the n oldest rows into dst, oldest first.
func (r *queryRing) copyOldest(dst []float32, n int) {
	if n == 0 {
		return
	}
	first := r.slots() - r.head // rows before the wrap
	if first > n {
		first = n
	}
	copy(dst, r.data[r.head*r.dim:(r.head+first)*r.dim])
	copy(dst[first*r.dim:], r.data[:(n-first)*r.dim])
}

// take removes the n oldest rows and returns them, oldest first, as a
// matrix that shares nothing with the ring.
func (r *queryRing) take(n int) *vec.Matrix {
	m := vec.NewMatrix(n, r.dim)
	r.copyOldest(m.Data(), n)
	if n == r.count {
		r.head, r.count = 0, 0
	} else {
		r.head = (r.head + n) % r.slots()
		r.count -= n
	}
	return m
}

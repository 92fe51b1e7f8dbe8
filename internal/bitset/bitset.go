// Package bitset implements dense fixed-capacity bitsets and a bit-matrix
// used by the Escape Hardness computation (Algorithm 2 of the paper). The
// transitive-closure updates there run a Floyd–Warshall-style relaxation
// over a boolean reachability matrix; representing each row as a bitset
// turns the inner loop into word-wide ORs, the same trick the paper's C++
// implementation uses ("we use bitset to store R and speed up the Floyd
// algorithm").
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset. The capacity is chosen at construction
// and bits outside it must not be addressed.
type Set struct {
	words []uint64
	n     int
}

// New returns a bitset able to hold n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Or sets s to s | t. The two sets must have equal capacity.
func (s *Set) Or(t *Set) {
	if s.n != t.n {
		panic("bitset: size mismatch")
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNot sets s to s &^ t. The two sets must have equal capacity.
func (s *Set) AndNot(t *Set) {
	if s.n != t.n {
		panic("bitset: size mismatch")
	}
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and t have the same capacity and bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. Returning false
// from fn stops the iteration early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Matrix is a square boolean matrix with bitset rows, used as a transitive
// closure / reachability matrix: Matrix.Test(i, j) == "j is reachable from
// i". It is sized n×n at construction.
type Matrix struct {
	rows []*Set
	// scratch is RelaxThrough's working row, kept here so a call allocates
	// nothing.
	scratch *Set
}

// NewMatrix returns an n×n all-false matrix.
func NewMatrix(n int) *Matrix {
	m := &Matrix{rows: make([]*Set, n), scratch: New(n)}
	for i := range m.rows {
		m.rows[i] = New(n)
	}
	return m
}

// Size returns n for an n×n matrix.
func (m *Matrix) Size() int { return len(m.rows) }

// Set marks (i, j) true.
func (m *Matrix) Set(i, j int) { m.rows[i].Set(j) }

// Test reports whether (i, j) is true.
func (m *Matrix) Test(i, j int) bool { return m.rows[i].Test(j) }

// Row exposes row i as a bitset (shared storage, mutations are visible).
func (m *Matrix) Row(i int) *Set { return m.rows[i] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: make([]*Set, len(m.rows)), scratch: New(len(m.rows))}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// CloseOver runs the Floyd–Warshall transitive-closure relaxation using
// only vertices in [0, k) as intermediates, restricted to rows in [0, k):
// for each pivot p < k and each row i < k with (i,p) set, row(i) |= row(p).
// Calling CloseOver(n) computes the full transitive closure.
//
// The bitset rows make each relaxation O(n/64) words, matching the paper's
// bitset-accelerated Floyd step.
func (m *Matrix) CloseOver(k int) {
	for p := 0; p < k; p++ {
		prow := m.rows[p]
		for i := 0; i < k; i++ {
			if i != p && m.rows[i].Test(p) {
				m.rows[i].Or(prow)
			}
		}
	}
}

// Intersects reports whether s and t share a set bit. The two sets must
// have equal capacity.
func (s *Set) Intersects(t *Set) bool {
	if s.n != t.n {
		panic("bitset: size mismatch")
	}
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// RelaxThrough extends a closure over the vertices [0, p) to one over
// [0, p]: the incremental step Algorithm 2 performs after adding each new
// point to the neighborhood subgraph. On entry the rows and columns below
// p must be transitively closed, row p must hold p's direct edges, and
// column p the direct edges into p.
//
// One pass suffices. A simple path out of p never comes back to p, so what
// p reaches is the union of what its direct successors already reach; and
// a vertex reaches p exactly when it has, or already reaches a vertex that
// has, a direct edge into p — it then inherits everything p reaches.
func (m *Matrix) RelaxThrough(p int) {
	prow := m.rows[p]
	into := m.scratch // the vertices below p with a direct edge into p
	into.Reset()
	for i := 0; i < p; i++ {
		if m.rows[i].Test(p) {
			into.Set(i)
		}
	}
	// Rows absorbed here were closed before this call, so bits the ORs add
	// to prow ahead of the scan only repeat what is already absorbed.
	prow.ForEach(func(j int) bool {
		if j < p {
			prow.Or(m.rows[j])
		}
		return true
	})
	if prow.Intersects(into) {
		prow.Set(p) // p lies on a cycle
	}
	for i := 0; i < p; i++ {
		if row := m.rows[i]; row.Test(p) || row.Intersects(into) {
			row.Set(p)
			row.Or(prow)
		}
	}
}

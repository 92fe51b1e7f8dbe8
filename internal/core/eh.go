// Package core implements the paper's contribution: Escape Hardness (EH),
// the δ-reachable closure, NGFix (Neighboring Graph Defects Fixing), RFix
// (Reachability Fixing), and the maintained index that applies them —
// including insertion with partial rebuild, deletion with NGFix repair,
// and Gaussian query augmentation (NGFix+) from the discussion section.
package core

import (
	"math"
	"math/bits"

	"ngfix/internal/bitset"
	"ngfix/internal/graph"
)

// InfEH marks an unreachable pair in an Escape Hardness matrix (and an
// unprunable RFix edge when stored on an edge tag).
const InfEH uint16 = math.MaxUint16

// EHResult is the Escape Hardness matrix of one query (Definition 5.1).
//
// EH[i][j] is the hardness of traveling from the (i+1)-th NN of the query
// to the (j+1)-th NN with greedy search: the smallest m such that p_j is
// reachable from p_i inside G_m(q), the subgraph induced by the query's m
// nearest neighbors. By Corollary 1 it upper-bounds the search-list size L
// needed for greedy search starting at p_i to visit p_j. Pairs still
// unreachable at m = KMax are InfEH.
type EHResult struct {
	// K is the matrix dimension: hardness is reported for the query's
	// first K NNs.
	K int
	// KMax is the neighborhood cap the computation ran to (a small
	// multiple of K; the paper uses 2K).
	KMax int
	// EH is the K×K matrix. The diagonal is 0.
	EH [][]uint16
}

// At returns EH[i][j].
func (r *EHResult) At(i, j int) uint16 { return r.EH[i][j] }

// MaxFinite returns the largest finite entry (0 when none).
func (r *EHResult) MaxFinite() uint16 {
	var max uint16
	for i := 0; i < r.K; i++ {
		for j := 0; j < r.K; j++ {
			if v := r.EH[i][j]; v != InfEH && v > max {
				max = v
			}
		}
	}
	return max
}

// CountAbove returns how many off-diagonal pairs have EH > delta
// (InfEH counts). This is the "how defective is this neighborhood" score
// NGFix uses to decide how much repair a query needs.
func (r *EHResult) CountAbove(delta uint16) int {
	n := 0
	for i := 0; i < r.K; i++ {
		for j := 0; j < r.K; j++ {
			if i != j && r.EH[i][j] > delta {
				n++
			}
		}
	}
	return n
}

// ComputeEH runs Algorithm 2: incremental neighborhood growth with a
// bitset-accelerated transitive closure.
//
// nn must list the query's nearest neighbors in ascending rank; its length
// caps KMax. k is the reported matrix dimension (k ≤ len(nn)). Edges of g
// (base and extra) between listed neighbors form the subgraphs G_m(q).
//
// The loop adds neighbor p_m (rank m, 1-indexed) together with its edges
// to already-added neighbors, relaxes the closure through p_m, and stamps
// every pair (i, j) with i, j ≤ k whose reachability just turned true with
// EH = m. It stops early once all k×k pairs are reachable.
//
// The result is the caller's. Index's fix passes run the same computation
// on scratch they keep between queries (fixScratch.computeEH).
func ComputeEH(g *graph.Graph, nn []uint32, k int) *EHResult {
	var s fixScratch
	return s.computeEH(g, nn, k)
}

// fixScratch is the reusable state of ComputeEH and NGFix, sized by the
// largest neighbourhood seen so far, so that a fix batch allocates nothing
// per query.
type fixScratch struct {
	// rank[id] is id's position in the current nn list — the last one when
	// id is listed twice — wherever stamp[id] == epoch: a per-call map
	// with an O(1) reset.
	rank  []int32
	stamp []uint32
	epoch uint32

	adj   *bitset.Matrix // row i: the ranks nn[i] has an edge to
	reach *bitset.Matrix // R of Algorithm 2: row i is what p_i reaches in G_m(q)
	done  *bitset.Matrix // row i < k: the j whose EH is already stamped
	d     *bitset.Matrix // NGFix's δ-reachable matrix D over the top k

	eh    []uint16 // the EH matrix, k×k, row-major
	rows  [][]uint16
	res   EHResult
	pairs []candidatePair
	dist  []float32 // one row's distances to the later neighbours
}

// candidatePair is one NGFix candidate edge between the i-th and j-th
// neighbours (i < j), at distance d.
type candidatePair struct {
	i, j int
	d    float32
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// square returns m cleared, or a new matrix when m cannot hold n×n. Rows
// and columns past n stay clear, so a larger matrix behaves as an n×n one.
func square(m *bitset.Matrix, n int) *bitset.Matrix {
	if m == nil || m.Size() < n {
		return bitset.NewMatrix(n)
	}
	m.Reset()
	return m
}

// rankNeighbors stamps the positions of nn in a graph of n vertices.
func (s *fixScratch) rankNeighbors(n int, nn []uint32) {
	if len(s.stamp) < n {
		n = max(n, 2*len(s.stamp))
		s.rank, s.stamp, s.epoch = make([]int32, n), make([]uint32, n), 0
	}
	if s.epoch++; s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	for i, id := range nn {
		s.rank[id], s.stamp[id] = int32(i), s.epoch
	}
}

// rankOf returns id's position in the nn list last given to
// rankNeighbors, or -1 when it is not listed.
func (s *fixScratch) rankOf(id uint32) int {
	if s.stamp[id] != s.epoch {
		return -1
	}
	return int(s.rank[id])
}

// computeEH is ComputeEH on s's storage: the result is valid until the
// next call. p_m's out-list is scanned once, when p_m joins, into row m of
// the neighbourhood's adjacency matrix, so an edge into p_m is one bit
// test per earlier row of that matrix, and the pairs that become
// reachable are found a word at a time.
func (s *fixScratch) computeEH(g *graph.Graph, nn []uint32, k int) *EHResult {
	kmax := len(nn)
	k = min(k, kmax)
	s.eh = grow(s.eh, k*k)
	s.rows = grow(s.rows, k)
	for i := range s.rows {
		row := s.eh[i*k : (i+1)*k]
		for j := range row {
			row[j] = InfEH
		}
		row[i] = 0
		s.rows[i] = row
	}
	s.res = EHResult{K: k, KMax: kmax, EH: s.rows}
	if k == 0 {
		return &s.res
	}
	s.rankNeighbors(g.Len(), nn)
	s.adj, s.reach, s.done = square(s.adj, kmax), square(s.reach, kmax), square(s.done, kmax)
	for i := 0; i < kmax; i++ {
		s.reach.Set(i, i)
		s.done.Set(i, i)
	}

	remaining := k*k - k // off-diagonal pairs still infinite
	for m := 0; m < kmax && remaining > 0; m++ {
		// Row m of the adjacency matrix: the ranks p_m has an edge to.
		adj := s.adj.Row(m).Words()
		for _, v := range g.Neighbors(nn[m]) {
			if r := s.rankOf(v); r >= 0 {
				adj[r/64] |= 1 << (r % 64)
			}
		}
		// p_m's edges to already-added neighbours, recorded only when the
		// rank map holds m for p_m: an id listed twice counts at its last
		// position.
		mw := m / 64 // no row holds a bit past m: later words are clear
		r := s.rankOf(nn[m])
		if r == m {
			reach := s.reach.Row(m).Words()
			for x := 0; x < mw; x++ {
				reach[x] |= adj[x]
			}
			reach[mw] |= adj[mw] & (2<<(m%64) - 1)
		}
		// Edges into p_m from already-added neighbours.
		for i := 0; i < m; i++ {
			if s.adj.Test(i, r) {
				s.reach.Set(i, m)
			}
		}
		// Propagate reachability through the new vertex, then stamp every
		// pair among the first k that is reachable now but was not before:
		// by Theorem 2 its Escape Hardness is exactly p_m's 1-indexed NN
		// rank, m+1.
		s.reach.RelaxThrough(m)
		for i := 0; i < k && i <= m; i++ {
			reach, done := s.reach.Row(i).Words(), s.done.Row(i).Words()
			for x := 0; x <= mw; x++ {
				fresh := reach[x] &^ done[x]
				done[x] |= fresh
				for ; fresh != 0; fresh &= fresh - 1 {
					j := x*64 + bits.TrailingZeros64(fresh)
					if j >= k {
						break
					}
					s.rows[i][j] = uint16(m + 1)
					remaining--
				}
			}
		}
	}
	return &s.res
}

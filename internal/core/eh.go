// Package core implements the paper's contribution: Escape Hardness (EH),
// the δ-reachable closure, NGFix (Neighboring Graph Defects Fixing), RFix
// (Reachability Fixing), and the maintained index that applies them —
// including insertion with partial rebuild, deletion with NGFix repair,
// Gaussian query augmentation, NGFix+, and the MD5 answer cache from the
// discussion section.
package core

import (
	"math"

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
func ComputeEH(g *graph.Graph, nn []uint32, k int) *EHResult {
	kmax := len(nn)
	if k > kmax {
		k = kmax
	}
	res := &EHResult{K: k, KMax: kmax, EH: make([][]uint16, k)}
	for i := range res.EH {
		res.EH[i] = make([]uint16, k)
		for j := range res.EH[i] {
			if i != j {
				res.EH[i][j] = InfEH
			}
		}
	}
	if k == 0 {
		return res
	}

	local := make(map[uint32]int, kmax)
	for i, id := range nn {
		local[id] = i
	}

	R := bitset.NewMatrix(kmax)
	for i := 0; i < kmax; i++ {
		R.Set(i, i)
	}

	remaining := k*k - k // off-diagonal pairs still infinite
	for m := 0; m < kmax && remaining > 0; m++ {
		u := nn[m]
		// Add p_m's edges to/from already-added neighbors.
		addDirected := func(from, to uint32) {
			fi, ok1 := local[from]
			ti, ok2 := local[to]
			if ok1 && ok2 && fi <= m && ti <= m {
				R.Set(fi, ti)
			}
		}
		for _, v := range g.BaseNeighbors(u) {
			addDirected(u, v)
		}
		for _, e := range g.ExtraNeighbors(u) {
			addDirected(u, e.To)
		}
		for i := 0; i < m; i++ {
			w := nn[i]
			for _, v := range g.BaseNeighbors(w) {
				if v == u {
					R.Set(i, m)
				}
			}
			for _, e := range g.ExtraNeighbors(w) {
				if e.To == u {
					R.Set(i, m)
				}
			}
		}
		// Propagate reachability through the new vertex, then stamp every
		// pair that is reachable now but was not before: by Theorem 2 its
		// Escape Hardness is exactly p_m's 1-indexed NN rank, m+1.
		R.RelaxThrough(m)
		for i := 0; i < k && i <= m; i++ {
			for j := 0; j < k && j <= m; j++ {
				if i != j && res.EH[i][j] == InfEH && R.Test(i, j) {
					stamp(res, i, j, uint16(m+1), &remaining)
				}
			}
		}
	}
	return res
}

func stamp(res *EHResult, i, j int, m uint16, remaining *int) {
	if i < res.K && j < res.K && i != j && res.EH[i][j] == InfEH {
		res.EH[i][j] = m
		*remaining--
	}
}

package core

import (
	"math"

	"ngfix/internal/graph"
)

// RFixParams controls Reachability Fixing (Algorithm 4).
type RFixParams struct {
	// K defines the query vicinity: the search "reaches the vicinity" when
	// its top-K results intersect the query's true top-K NNs. Once one
	// vicinity point is reached, NGFix's repaired neighborhood guarantees
	// the rest (Theorem 5's division of labor).
	K int
	// L is the search-list size used for the reachability test. The paper
	// sets L = K so the guarantee covers searches at the smallest useful
	// list size.
	L int
	// ExpandL is the larger beam used to collect the extended candidate
	// set around the stuck point (replacing the brute-force ball scan).
	ExpandL int
	// MinAngle is the RNG-pruning angle (radians) that disperses the new
	// edges across directions; the paper uses 60°.
	MinAngle float64
	// MaxRounds bounds repeat applications for one query.
	MaxRounds int
	// LEx is the per-vertex extra-degree cap (shared with NGFix).
	LEx int
}

func (p RFixParams) withDefaults() RFixParams {
	if p.K <= 0 {
		p.K = 20
	}
	if p.L < p.K {
		p.L = p.K
	}
	if p.ExpandL <= 0 {
		p.ExpandL = 4 * p.L
	}
	if p.MinAngle == 0 {
		p.MinAngle = math.Pi / 3
	}
	if p.MaxRounds <= 0 {
		p.MaxRounds = 3
	}
	if p.LEx <= 0 {
		p.LEx = 2 * p.K
	}
	return p
}

// RFixStats reports one RFix application.
type RFixStats struct {
	// Triggered reports whether the search failed to reach the vicinity
	// (and repair was therefore attempted).
	Triggered bool
	// Rounds is the number of repair rounds executed.
	Rounds int
	// EdgesAdded counts extra edges added (all tagged InfEH).
	EdgesAdded int
	// Reached reports whether the search reaches the vicinity afterwards.
	Reached bool
}

// RFix runs Algorithm 4 for one query: search from the graph's entry
// point (the medoid, fixed per §5.4); if the search stalls before the
// query's vicinity, expand the stuck point's candidate neighbor set with a
// wider search, angular-prune it (>60° between kept edges), and add the
// kept edges with EH = ∞ so NGFix never evicts them. Repeat until the
// vicinity is reachable, the degree budget is exhausted, or MaxRounds.
//
// nn must hold the query's true NNs in ascending rank (length ≥ K).
func RFix(g *graph.Graph, q []float32, nn []uint32, params RFixParams) RFixStats {
	return rfix(g, graph.NewSearcher(g), q, nn, params)
}

// rfix is RFix running every search on the caller's searcher over g (its
// O(n) visited array is the cost a per-query searcher would pay again for
// each query and each widening round). s.CollectVisited is left as found.
func rfix(g *graph.Graph, s *graph.Searcher, q []float32, nn []uint32, params RFixParams) RFixStats {
	p := params.withDefaults()
	k := p.K
	if k > len(nn) {
		k = len(nn)
	}
	var st RFixStats
	if k == 0 || g.Len() == 0 {
		st.Reached = true
		return st
	}
	vicinity := make(map[uint32]bool, k)
	for _, id := range nn[:k] {
		vicinity[id] = true
	}

	reaches := func() ([]graph.Result, bool) {
		res, _ := s.SearchFrom(q, k, p.L, g.EntryPoint)
		for _, r := range res {
			if vicinity[r.ID] {
				return res, true
			}
		}
		return res, false
	}

	res, ok := reaches()
	if ok {
		st.Reached = true
		return st
	}
	st.Triggered = true

	ngp := NGFixParams{K: p.K, LEx: p.LEx}.withDefaults()
	for round := 0; round < p.MaxRounds; round++ {
		st.Rounds++
		if len(res) == 0 {
			break
		}
		anchor := res[0] // the approximate NN the stuck search returned
		radius := g.Distance(q, anchor.ID)

		// Extended candidate set: points visited by a wider search whose
		// distance to the anchor is within the anchor→query radius — the
		// ball the paper scans, approximated by search visitation.
		collect := s.CollectVisited
		s.CollectVisited = true
		s.SearchFrom(q, p.ExpandL, p.ExpandL, g.EntryPoint)
		s.CollectVisited = collect
		aRow := g.Vectors.Row(int(anchor.ID))
		var cands []graph.Candidate
		for _, v := range s.Visited {
			if v.ID == anchor.ID {
				continue
			}
			da := g.Metric.Distance(aRow, g.Vectors.Row(int(v.ID)))
			if da <= radius {
				cands = append(cands, graph.Candidate{ID: v.ID, Dist: da})
			}
		}
		// Always offer the true vicinity points themselves as candidates:
		// the wider search may have seen them.
		for _, id := range nn[:k] {
			if id != anchor.ID {
				cands = append(cands, graph.Candidate{ID: id, Dist: g.Metric.Distance(aRow, g.Vectors.Row(int(id)))})
			}
		}
		graph.SortCandidates(cands)
		cands = dedupCandidates(cands)
		kept := graph.AnglePrune(g.Vectors, anchor.ID, cands, p.LEx, p.MinAngle)
		var tmp NGFixStats
		for _, c := range kept {
			addExtraWithBudget(g, anchor.ID, c.ID, InfEH, ngp, &tmp)
		}
		added := tmp.EdgesAdded
		st.EdgesAdded += added
		res, ok = reaches()
		if ok {
			st.Reached = true
			return st
		}
		if added == 0 {
			break // budget exhausted or nothing new: stop
		}
	}
	_, st.Reached = reaches()
	return st
}

func dedupCandidates(cs []graph.Candidate) []graph.Candidate {
	seen := make(map[uint32]bool, len(cs))
	out := cs[:0]
	for _, c := range cs {
		if !seen[c.ID] {
			seen[c.ID] = true
			out = append(out, c)
		}
	}
	return out
}

package core

import (
	"cmp"
	"math/rand"
	"slices"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// PruneMode selects which extra edge is evicted when a vertex's extra
// out-degree budget overflows. The paper's ablation (Figure 14) compares
// the three.
type PruneMode uint8

const (
	// PruneEH evicts the extra edge with the lowest Escape Hardness tag —
	// the edge that was cheapest to live without (the paper's choice).
	PruneEH PruneMode = iota
	// PruneRandom evicts a uniformly random extra edge.
	PruneRandom
	// PruneMRNG evicts by the MRNG occlusion rule, which the paper shows
	// is harmful here: it preferentially drops long edges, exactly the
	// ones hard queries need.
	PruneMRNG
)

// NGFixParams controls one NGFix application.
type NGFixParams struct {
	// K is the neighborhood size to repair (the paper's k; its two-round
	// schedule uses 30–75 then 10).
	K int
	// KMax caps the Escape Hardness computation (default 2K).
	KMax int
	// Delta is the δ-reachability threshold: pairs with EH ≤ Delta are
	// already fine. Default KMax.
	Delta uint16
	// LEx bounds the extra out-degree of any vertex.
	LEx int
	// Prune selects the overflow eviction rule.
	Prune PruneMode
	// Rng drives PruneRandom (may be nil otherwise).
	Rng *rand.Rand
}

// withDefaults fills derived defaults.
func (p NGFixParams) withDefaults() NGFixParams {
	if p.K <= 0 {
		p.K = 20
	}
	if p.KMax < p.K {
		p.KMax = 2 * p.K
	}
	if p.Delta == 0 {
		p.Delta = uint16(p.KMax)
	}
	if p.LEx <= 0 {
		p.LEx = 2 * p.K
	}
	return p
}

// NGFixStats reports what one NGFix application did.
type NGFixStats struct {
	// EdgesAdded counts directed extra edges inserted.
	EdgesAdded int
	// EdgesPruned counts extra edges evicted for budget overflow.
	EdgesPruned int
	// PairsAboveDelta is the number of defective pairs before fixing.
	PairsAboveDelta int
	// FullyReachable reports whether every ordered pair of the query's
	// top-K NNs ended δ-reachable.
	FullyReachable bool
}

// NGFix runs Algorithm 3 for one query whose nearest neighbors are nn
// (ascending rank, length ≥ params.KMax ideally; shorter lists are used as
// given). It mutates g by adding extra edges among the query's top-K NNs
// until every ordered pair is δ-reachable, processing candidate edges in
// increasing length order (the minimum-spanning-tree idea: MST ⊂ RNG), and
// respecting the per-vertex extra-degree budget with Prune-mode eviction.
func NGFix(g *graph.Graph, nn []uint32, params NGFixParams) NGFixStats {
	var s fixScratch
	return s.ngfix(g, nn, params)
}

// ngfix is NGFix on s's storage. The δ-reachable matrix D is bit rows, so
// closing over a new edge ORs whole rows, and the candidate pairs live in
// one reused slice.
func (s *fixScratch) ngfix(g *graph.Graph, nn []uint32, params NGFixParams) NGFixStats {
	p := params.withDefaults()
	if len(nn) > p.KMax {
		nn = nn[:p.KMax]
	}
	k := p.K
	if k > len(nn) {
		k = len(nn)
	}
	var st NGFixStats
	if k < 2 {
		st.FullyReachable = true
		return st
	}

	eh := s.computeEH(g, nn, k)
	st.PairsAboveDelta = eh.CountAbove(p.Delta)

	// δ-reachable matrix D over the top-k neighborhood.
	s.d = square(s.d, k)
	D := s.d
	remaining := 0
	for i, row := range eh.EH {
		for j, v := range row {
			if i == j || v <= p.Delta {
				D.Set(i, j)
			} else {
				remaining++
			}
		}
	}
	if remaining == 0 {
		st.FullyReachable = true
		return st
	}

	// Candidate edges: unordered pairs by ascending distance. Each row's
	// distances come from one gather call of a distancer prepared with the
	// graph's norm cache, which returns Metric.Distance's bits.
	pairs := grow(s.pairs, k*(k-1)/2)
	s.pairs = pairs
	s.dist = grow(s.dist, k)
	norms := g.RowNorms()
	at := 0
	for i := 0; i < k-1; i++ {
		var norm float32
		if norms != nil {
			norm = norms[nn[i]]
		}
		qd := vec.NewQueryDistancerNorm(g.Metric, g.Vectors.Row(int(nn[i])), norm, norms)
		dists := s.dist[:k-1-i]
		qd.RowDistances(g.Vectors, nn[i+1:k], dists)
		for x, d := range dists {
			pairs[at] = candidatePair{i, i + 1 + x, d}
			at++
		}
	}
	slices.SortFunc(pairs, func(a, b candidatePair) int {
		if a.d != b.d {
			if a.d < b.d {
				return -1
			}
			return 1
		}
		if a.i != b.i {
			return cmp.Compare(a.i, b.i)
		}
		return cmp.Compare(a.j, b.j)
	})

	// propagate marks (i,j) reachable and closes over it:
	// ∀ x,y: D[x][i] ∧ D[j][y] ⇒ D[x][y]  (Algorithm 3 lines 17-19).
	propagate := func(i, j int) {
		dj := D.Row(j)
		for x := 0; x < k; x++ {
			if D.Test(x, i) {
				dx := D.Row(x)
				before := dx.Count()
				dx.Or(dj)
				remaining -= dx.Count() - before
			}
		}
	}

	// Edge tag: the hardness this edge fixes (clamped finite max+1 for
	// InfEH would lose the "unfixable without me" signal, so keep Inf
	// edges just below RFix's reserved InfEH).
	tag := func(i, j int) uint16 {
		if v := eh.EH[i][j]; v != InfEH {
			return v
		}
		return InfEH - 1
	}
	for _, c := range pairs {
		if remaining == 0 {
			break
		}
		needFwd, needBwd := !D.Test(c.i, c.j), !D.Test(c.j, c.i)
		if !needFwd && !needBwd {
			continue
		}
		if needFwd && addExtraWithBudget(g, nn[c.i], nn[c.j], tag(c.i, c.j), p, &st) {
			propagate(c.i, c.j)
		}
		if remaining == 0 {
			break
		}
		if needBwd && !D.Test(c.j, c.i) && addExtraWithBudget(g, nn[c.j], nn[c.i], tag(c.j, c.i), p, &st) {
			propagate(c.j, c.i)
		}
	}
	st.FullyReachable = remaining == 0
	return st
}

// addExtraWithBudget inserts extra edge u→v (tag eh), evicting per the
// prune mode when u's extra budget is full. It returns whether the edge is
// now present.
func addExtraWithBudget(g *graph.Graph, u, v uint32, eh uint16, p NGFixParams, st *NGFixStats) bool {
	if u == v || g.HasEdge(u, v) {
		return true // already connected: treat as present
	}
	if g.ExtraDegree(u) >= p.LEx {
		victim, ok := pickVictim(g, u, eh, p)
		if !ok {
			return false
		}
		g.RemoveExtraEdge(u, victim)
		st.EdgesPruned++
	}
	if g.AddExtraEdge(u, v, eh) {
		st.EdgesAdded++
		return true
	}
	return false
}

// pickVictim chooses which existing extra edge of u to evict to make room
// for a new edge with hardness newEH. RFix edges (InfEH) are never
// evicted. ok=false means the new edge loses and is not added.
func pickVictim(g *graph.Graph, u uint32, newEH uint16, p NGFixParams) (victim uint32, ok bool) {
	nbrs, tags := g.Neighbors(u), g.ExtraTags(u)
	ids := nbrs[len(nbrs)-len(tags):] // ids[i] carries tags[i]
	switch p.Prune {
	case PruneRandom:
		evictable := 0
		for _, t := range tags {
			if t != InfEH {
				evictable++
			}
		}
		if evictable == 0 {
			return 0, false
		}
		r := p.Rng
		if r == nil {
			r = rand.New(rand.NewSource(int64(u)))
		}
		pick := r.Intn(evictable)
		for i, t := range tags {
			if t == InfEH {
				continue
			}
			if pick == 0 {
				return ids[i], true
			}
			pick--
		}
		panic("unreachable")
	case PruneMRNG:
		// Evict the longest edge unless it is protected — the "prune long
		// edges" behavior the paper shows is harmful for hard queries.
		uRow := g.Vectors.Row(int(u))
		best := -1
		var bestD float32
		for i, t := range tags {
			if t == InfEH {
				continue
			}
			d := g.Metric.Distance(uRow, g.Vectors.Row(int(ids[i])))
			if best == -1 || d > bestD {
				best, bestD = i, d
			}
		}
		if best == -1 {
			return 0, false
		}
		return ids[best], true
	default: // PruneEH
		best := -1
		var bestEH uint16
		for i, t := range tags {
			if t == InfEH {
				continue
			}
			if best == -1 || t < bestEH {
				best, bestEH = i, t
			}
		}
		if best == -1 || bestEH >= newEH {
			return 0, false // existing edges are all at least as valuable
		}
		return ids[best], true
	}
}

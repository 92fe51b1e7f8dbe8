package hnsw

import (
	"slices"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// InsertIntoGraphWith inserts vector v into a flat base graph and returns
// its id: it plans v's m out-neighbours with an efConstruction beam
// search from the graph's entry point and an RNG prune, then commits
// them, linking each back under a degree cap of 2m (HNSW's Mmax0). It is
// Build's algorithm for one row. s is the caller's searcher over g,
// reused across inserts so that none allocates an O(n) visited set; it
// grows with the graph. A caller that inserts many rows keeps an
// Inserter instead, which reuses the planning buffers too.
//
// The maintenance experiments (§5.5.1) use this to grow the base graph of
// an already-fixed index: the paper requires "a base graph structure that
// allows incremental updates (e.g., HNSW)", and its partial-rebuild step
// only touches extra edges, so base insertion and fixing stay independent.
func InsertIntoGraphWith(g *graph.Graph, s *graph.Searcher, v []float32, m, efConstruction int) uint32 {
	return NewInserter(s).Insert(g, v, m, efConstruction)
}

// Inserter runs InsertIntoGraphWith's algorithm row after row, keeping
// the planning and commit buffers between calls: an insert then
// allocates little beyond what the graph keeps, the new row's out-list
// and the growth of the lists linked back to it. Not safe for concurrent
// use.
type Inserter struct {
	ws     [1]scratch
	plans  [1][]uint32
	keys   []uint64
	groups []int
}

// NewInserter returns an inserter that plans on s, a searcher over the
// graph it inserts into.
func NewInserter(s *graph.Searcher) *Inserter {
	in := &Inserter{}
	in.ws[0].s = s
	return in
}

// Insert inserts v into g as InsertIntoGraphWith does and returns its id.
func (in *Inserter) Insert(g *graph.Graph, v []float32, m, efConstruction int) uint32 {
	id := g.AppendVertex(v)
	if g.Len() == 1 {
		g.EntryPoint = id
		return id
	}
	in.plans[0] = in.ws[0].plan(g, id, m, efConstruction)
	in.keys, in.groups = commit(g, int(id), in.plans[:], 2*m, in.ws[:], in.keys, in.groups)
	in.plans[0] = nil // the graph owns the list now
	return id
}

// scratch is one worker's insertion state: the searcher planning runs on
// and the buffers planning and linking reuse.
type scratch struct {
	s     *graph.Searcher
	res   []graph.Result
	cands []graph.Candidate
	dists []float32
}

// plan returns the out-list row id gets when inserted into g as it
// stands: the efConstruction nearest rows a beam search from the entry
// point finds, RNG-pruned to m in ascending distance. It only reads g, so
// rows that no list links to yet plan concurrently, each on its own
// scratch.
func (sc *scratch) plan(g *graph.Graph, id uint32, m, efConstruction int) []uint32 {
	sc.res, _ = sc.s.AppendSearch(nil, sc.res[:0], g.Vectors.Row(int(id)), efConstruction, efConstruction, g.EntryPoint)
	sc.cands = slices.Grow(sc.cands[:0], len(sc.res))
	for _, r := range sc.res {
		if r.ID != id {
			sc.cands = append(sc.cands, graph.Candidate{ID: r.ID, Dist: r.Dist})
		}
	}
	graph.SortCandidates(sc.cands)
	selected := graph.RNGPruneNorms(g.Vectors, g.Metric, g.RowNorms(), sc.cands, m)
	nbrs := make([]uint32, len(selected))
	for i, c := range selected {
		nbrs[i] = c.ID
	}
	return nbrs
}

// linkBack adds u→v and, when u's base list then exceeds cap, shrinks it
// in place to the ids the RNG heuristic keeps: they are written back over
// the list's own prefix and the list keeps its capacity, so neither the
// shrink nor the next link-back to u allocates. It reads and writes only
// u's list.
func (sc *scratch) linkBack(g *graph.Graph, u, v uint32, cap int) {
	if !g.AddBaseEdge(u, v) {
		return
	}
	nbrs := g.BaseNeighbors(u)
	if len(nbrs) <= cap {
		return
	}
	norms := g.RowNorms()
	var norm float32
	if norms != nil {
		norm = norms[u]
	}
	ud := vec.NewQueryDistancerNorm(g.Metric, g.Vectors.Row(int(u)), norm, norms)
	sc.dists = slices.Grow(sc.dists[:0], len(nbrs))[:len(nbrs)]
	ud.RowDistances(g.Vectors, nbrs, sc.dists)
	sc.cands = slices.Grow(sc.cands[:0], len(nbrs))
	for i, w := range nbrs {
		sc.cands = append(sc.cands, graph.Candidate{ID: w, Dist: sc.dists[i]})
	}
	graph.SortCandidates(sc.cands)
	kept := graph.RNGPruneNorms(g.Vectors, g.Metric, norms, sc.cands, cap)
	for i, c := range kept {
		nbrs[i] = c.ID
	}
	g.TruncateBaseNeighbors(u, len(kept))
}

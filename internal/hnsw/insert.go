package hnsw

import (
	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// InsertIntoGraph performs an HNSW-style level-0 insertion of vector v
// directly into a flat base graph: beam-search the efconstruction nearest
// candidates, RNG-prune them to m out-edges for the new vertex, and link
// back with degree-capped shrinking (cap 2m, matching HNSW's Mmax0).
//
// The maintenance experiments (§5.5.1) use this to grow the base graph of
// an already-fixed index: the paper requires "a base graph structure that
// allows incremental updates (e.g., HNSW)", and its partial-rebuild step
// only touches extra edges, so base insertion and fixing stay independent.
// It returns the new vertex id.
func InsertIntoGraph(g *graph.Graph, v []float32, m, efConstruction int) uint32 {
	return InsertIntoGraphWith(g, graph.NewSearcher(g), v, m, efConstruction)
}

// InsertIntoGraphWith is InsertIntoGraph with a caller-owned searcher, so
// bulk-insert paths reuse one scratch set (visited array, heaps) across
// inserts instead of allocating an O(n) searcher per vertex. The searcher
// must belong to g; its visited set grows with the graph automatically.
func InsertIntoGraphWith(g *graph.Graph, s *graph.Searcher, v []float32, m, efConstruction int) uint32 {
	id := g.AppendVertex(v)
	if g.Len() == 1 {
		g.EntryPoint = id
		return id
	}
	res, _ := s.SearchFrom(v, efConstruction, efConstruction, g.EntryPoint)
	cands := make([]graph.Candidate, 0, len(res))
	for _, r := range res {
		if r.ID != id {
			cands = append(cands, graph.Candidate{ID: r.ID, Dist: r.Dist})
		}
	}
	graph.SortCandidates(cands)
	selected := graph.RNGPruneNorms(g.Vectors, g.Metric, g.RowNorms(), cands, m)
	for _, c := range selected {
		g.AddBaseEdge(id, c.ID)
		linkBack(g, c.ID, id, 2*m)
	}
	return id
}

// linkBack adds u→v and shrinks u's base list with the RNG heuristic when
// it exceeds cap.
func linkBack(g *graph.Graph, u, v uint32, cap int) {
	if !g.AddBaseEdge(u, v) {
		return
	}
	nbrs := g.BaseNeighbors(u)
	if len(nbrs) <= cap {
		return
	}
	ud := vec.NewQueryDistancer(g.Metric, g.Vectors.Row(int(u)), g.RowNorms())
	cands := make([]graph.Candidate, len(nbrs))
	for i, w := range nbrs {
		cands[i] = graph.Candidate{ID: w, Dist: ud.RowDistance(g.Vectors, w)}
	}
	graph.SortCandidates(cands)
	kept := graph.RNGPruneNorms(g.Vectors, g.Metric, g.RowNorms(), cands, cap)
	out := make([]uint32, len(kept))
	for i, c := range kept {
		out[i] = c.ID
	}
	g.SetBaseNeighbors(u, out)
}

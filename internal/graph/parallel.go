package graph

import (
	"ngfix/internal/parallel"
	"ngfix/internal/vec"
)

// SearchBatch answers all queries with a worker pool (one Searcher per
// worker, queries handed out one at a time as workers free up) and
// returns per-query results plus aggregate stats. The paper benchmarks
// single-threaded, but a served index wants the parallel path;
// correctness matches sequential search exactly since workers only read.
//
// workers ≤ 0 selects GOMAXPROCS.
func SearchBatch(g *Graph, queries *vec.Matrix, k, ef, workers int) ([][]Result, Stats) {
	nq := queries.Rows()
	out := make([][]Result, nq)
	nw := parallel.Workers(workers, nq, 1)
	searchers := make([]*Searcher, nw)
	stats := make([]Stats, nw)
	parallel.For(nw, nq, 1, func(w, lo, hi int) {
		if searchers[w] == nil {
			searchers[w] = NewSearcher(g)
		}
		for i := lo; i < hi; i++ {
			res, st := searchers[w].SearchFrom(queries.Row(i), k, ef, g.EntryPoint)
			out[i] = res
			stats[w].NDC += st.NDC
			stats[w].Hops += st.Hops
		}
	})
	var total Stats
	for _, st := range stats {
		total.NDC += st.NDC
		total.Hops += st.Hops
	}
	return out, total
}

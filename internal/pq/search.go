package pq

import (
	"context"

	"ngfix/internal/graph"
	"ngfix/internal/minheap"
	"ngfix/internal/vec"
)

// GraphSearcher runs beam search over a graph index scoring candidates
// with ADC lookups instead of full-precision distances, then re-ranks the
// best candidates exactly. One full-precision distance is paid per
// re-ranked candidate instead of per visited vertex.
//
// The beam is bounded at ef — exactly like the full-precision searcher,
// so ef buys the same breadth/cost trade-off in both domains — while the
// rerank pool (of size Rerank, default 4·k) is the ADC-best live vertices
// seen anywhere during navigation: the prefix of the beam's own candidate
// list (graph.Beam). The two bounds are independent: a wide rerank pool
// does not widen the beam, and a small ef does not starve the rerank set.
type GraphSearcher struct {
	g *graph.Graph
	s *graph.Searcher
	// ts scores through the per-query ADC table, rebuilt in place for each
	// search: one M·KS buffer per searcher, not per query.
	ts tableScorer
	// reranked keeps the exact top-k of the rerank pool, reused across
	// searches.
	reranked *minheap.Bounded
	// Rerank is how many ADC-best candidates get exact re-ranking
	// (default 4·k at search time when zero).
	Rerank int
	// Tier, when set, supplies the full-precision rows for the exact
	// rerank instead of g.Vectors — the demoted (mmap'd / on-disk)
	// vector tier. Ids must correspond to graph ids.
	Tier Tier
}

// NewGraphSearcher pairs a graph with a quantizer trained on the same
// rows (ids must correspond).
func NewGraphSearcher(g *graph.Graph, q *Quantizer) *GraphSearcher {
	if q.Rows() != g.Len() {
		panic("pq: quantizer rows != graph size")
	}
	return &GraphSearcher{g: g, s: graph.NewSearcher(g), ts: tableScorer{q: q}, reranked: minheap.NewBounded(1)}
}

// tableScorer adapts a per-query ADC table to the graph.Scorer seam.
type tableScorer struct {
	q *Quantizer
	t Table
	// wide is t with every subspace's row padded to vec.ADCStride entries
	// (t itself when KS is that already), the layout vec.ADCRows reads.
	wide []float32
}

// prepare builds the query's table in place, and its wide form.
func (ts *tableScorer) prepare(query []float32) {
	ts.t = ts.q.BuildTableInto(ts.t, query)
	m, ks := ts.q.cfg.M, ts.q.cfg.KS
	if ks == vec.ADCStride {
		ts.wide = ts.t
		return
	}
	if len(ts.wide) != m*vec.ADCStride {
		ts.wide = make([]float32, m*vec.ADCStride)
	}
	for j := 0; j < m; j++ {
		copy(ts.wide[j*vec.ADCStride:], ts.t[j*ks:(j+1)*ks])
	}
}

// ScoreIDs is the per-hop batched gather: one kernel call walks every
// gathered neighbour's M contiguous code bytes through the table — all the
// memory traffic is the code array (M bytes/vertex) and the table (KS·M
// floats, cache-resident for the whole query). Each score has ADC's bits.
func (ts *tableScorer) ScoreIDs(ids []uint32, out []float32) {
	vec.ADCRows(ts.wide, ts.q.codes, ts.q.cfg.M, ids, out)
}

// Search is SearchCtx without cancellation.
func (s *GraphSearcher) Search(query []float32, k, ef int) ([]graph.Result, graph.Stats) {
	return s.SearchCtx(nil, query, k, ef)
}

// SearchCtx returns the top-k for the query using ADC-guided beam search
// with search list ef and exact re-ranking, polling ctx (nil means never
// cancelled) on the same 32-hop cadence as the full-precision path: a
// cancelled search stops where it stands, reranks what it has, and
// reports Stats.Truncated.
//
// Stats.NDC counts only full-precision distance evaluations (the
// re-rank), mirroring how PQ+graph systems report their savings;
// Stats.ADCLookups counts the compressed-domain navigation work.
func (s *GraphSearcher) SearchCtx(ctx context.Context, query []float32, k, ef int) ([]graph.Result, graph.Stats) {
	g := s.g
	if g.Len() == 0 {
		return nil, graph.Stats{}
	}
	if ef < k {
		ef = k
	}
	rerank := s.Rerank
	if rerank <= 0 {
		rerank = 4 * k
	}
	if rerank < k {
		rerank = k
	}
	s.ts.prepare(query)
	pool, st := s.s.SearchScoredPoolCtx(ctx, &s.ts, ef, rerank, g.EntryPoint)

	// Exact re-rank of the ADC-best candidates from the full-precision
	// tier (graph vectors unless a demoted tier is attached). The tier's
	// rows are the graph's rows, so the graph's norm cache describes them:
	// one dot product per cosine candidate, with Metric.Distance's bits.
	rowOf := g.Vectors.Row
	if s.Tier != nil {
		rowOf = s.Tier.Row
	}
	qd := vec.NewQueryDistancer(g.Metric, query, g.RowNorms())
	reranked := s.reranked
	reranked.Reset(k)
	for _, it := range pool {
		if d := qd.Score(rowOf(int(it.ID)), it.ID); reranked.WouldAccept(d) {
			reranked.Push(minheap.Item{ID: it.ID, Dist: d})
		}
	}
	st.NDC += qd.Count
	out := make([]graph.Result, reranked.Len())
	for i := len(out) - 1; i >= 0; i-- {
		it := reranked.PopMax()
		out[i] = graph.Result{ID: it.ID, Dist: it.Dist}
	}
	return out, st
}

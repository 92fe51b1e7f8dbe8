package pq

import (
	"context"

	"ngfix/internal/graph"
	"ngfix/internal/minheap"
)

// GraphSearcher runs beam search over a graph index scoring candidates
// with ADC lookups instead of full-precision distances, then re-ranks the
// best candidates exactly. One full-precision distance is paid per
// re-ranked candidate instead of per visited vertex.
//
// The beam is bounded at ef — exactly like the full-precision searcher,
// so ef buys the same breadth/cost trade-off in both domains — while a
// separate pool (of size Rerank, default 4·k) collects the ADC-best
// vertices seen anywhere during navigation for the exact rerank. The two
// bounds are independent: a wide rerank pool no longer widens the beam
// (the historical bug this type shipped with), and a small ef no longer
// starves the rerank set.
type GraphSearcher struct {
	g *graph.Graph
	s *graph.Searcher
	// ts scores through the per-query ADC table, rebuilt in place for each
	// search: one M·KS buffer per searcher, not per query.
	ts tableScorer
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
	return &GraphSearcher{g: g, s: graph.NewSearcher(g), ts: tableScorer{q: q}}
}

// tableScorer adapts a per-query ADC table to the graph.Scorer seam.
type tableScorer struct {
	q *Quantizer
	t Table
}

func (ts *tableScorer) ScoreID(id uint32) float32 { return ts.q.ADC(ts.t, int(id)) }

// ScoreIDs is the per-hop batched gather: for each gathered neighbor it
// walks that row's M contiguous code bytes through the table — all the
// memory traffic is the code array (M bytes/vertex) and the table (KS·M
// floats, cache-resident for the whole query).
func (ts *tableScorer) ScoreIDs(ids []uint32, out []float32) {
	q, t := ts.q, ts.t
	m, ks := q.cfg.M, q.cfg.KS
	codes := q.codes
	for i, id := range ids {
		code := codes[int(id)*m : int(id)*m+m]
		var s float32
		for j, c := range code {
			s += t[j*ks+int(c)]
		}
		out[i] = s
	}
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
	s.ts.t = s.ts.q.BuildTableInto(s.ts.t, query)
	pool, st := s.s.SearchScoredPoolCtx(ctx, &s.ts, ef, rerank, g.EntryPoint)

	// Exact re-rank of the ADC-best candidates from the full-precision
	// tier (graph vectors unless a demoted tier is attached).
	rowOf := g.Vectors.Row
	if s.Tier != nil {
		rowOf = s.Tier.Row
	}
	reranked := minheap.NewBounded(k)
	for _, it := range pool {
		d := g.Metric.Distance(query, rowOf(int(it.ID)))
		st.NDC++
		if reranked.WouldAccept(d) {
			reranked.Push(minheap.Item{ID: it.ID, Dist: d})
		}
	}
	final := reranked.SortedAscending()
	out := make([]graph.Result, len(final))
	for i, it := range final {
		out[i] = graph.Result{ID: it.ID, Dist: it.Dist}
	}
	return out, st
}

package graph

import "context"

// Scorer is how the beam loop scores vertices: one call per hop for the
// whole gathered batch. Full-precision searches score through the
// graph's vectors (exact distances, one gather-kernel call); a compressed
// Scorer is prepared once per query (e.g. a PQ ADC lookup table) and
// scores the batch without touching the full vectors.
//
// Scores must be comparable to each other (smaller is closer) but need
// not equal the metric's true distances; searches that navigate on a
// compressed Scorer rerank their final candidates exactly.
type Scorer interface {
	// ScoreIDs writes the score of vertex ids[i] into out[i]; out has at
	// least len(ids) entries. A search calls it once per hop (and once for
	// its entry point).
	ScoreIDs(ids []uint32, out []float32)
}

// SearchScoredPoolCtx runs the SearchFromCtx beam with candidate scoring
// delegated to sc and returns the pool best live vertices it scored, in
// ascending score order — the compressed-domain best candidates, ready for
// exact reranking by the caller — with the scoring work counted in
// Stats.ADCLookups (Stats.NDC stays zero: no full-precision distance is
// evaluated here). The returned slice is the searcher's storage, valid
// until its next search.
//
// The beam itself is bounded at L exactly as the full-precision beam is,
// so L buys the same navigation/quality trade-off in both domains. The
// pool is the prefix of the same candidate list (see Beam): a pool larger
// than L does not widen the beam, and a pool smaller than L does not cut
// the search short.
//
// ctx (nil means never cancelled) is polled every cancelCheckEvery hop
// expansions, setting Stats.Truncated on cancellation, matching the
// full-precision path's overload contract.
func (s *Searcher) SearchScoredPoolCtx(ctx context.Context, sc Scorer, L, pool int, entry uint32) ([]Result, Stats) {
	if s.g.Len() == 0 {
		return nil, Stats{}
	}
	L, pool = max(L, 1), max(pool, 1)
	st := s.search(ctx, sc, L, max(L, pool), entry)
	st.ADCLookups, st.NDC = st.NDC, 0
	s.pooled = s.beam.appendLive(s.pooled[:0], pool)
	return s.pooled, st
}

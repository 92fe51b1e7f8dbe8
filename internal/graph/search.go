package graph

import (
	"context"
	"slices"

	"ngfix/internal/minheap"
	"ngfix/internal/vec"
)

// Result is one search hit.
type Result struct {
	ID   uint32
	Dist float32
}

// Stats reports the cost of one search.
type Stats struct {
	// NDC is the number of distance calculations performed.
	NDC int64
	// ADCLookups is the number of compressed-domain score evaluations
	// (asymmetric-distance table lookups) performed, zero on full-precision
	// searches. A PQ-fused search reports its navigation work here and only
	// the exact rerank in NDC, so the two costs stay separately visible.
	ADCLookups int64
	// Hops is the number of vertices whose neighbor lists were expanded.
	Hops int
	// Truncated reports that the search stopped early because its context
	// was cancelled or its deadline fired; the results are the best found
	// so far, not the full beam-search answer.
	Truncated bool
}

// cancelCheckEvery is how many hop expansions pass between context
// checks: frequent enough that a cancelled search stops within
// microseconds, rare enough that the check is invisible in the profile.
const cancelCheckEvery = 32

// Searcher holds reusable per-goroutine scratch for beam searches over one
// graph. It is not safe for concurrent use; create one per worker.
type Searcher struct {
	g       *Graph
	visited *minheap.Visited
	beam    Beam
	rows    rowScorer

	// gatherIDs/gatherD are the per-hop batch: the unvisited neighbours of
	// the expanded vertex and their scores from one Scorer call. Sized to
	// the largest out-degree seen, reused across hops and searches.
	gatherIDs []uint32
	gatherD   []float32

	// pooled backs the slice SearchScoredPoolCtx returns.
	pooled []Result

	// CollectVisited, when true, records every vertex whose distance was
	// evaluated during the search, in evaluation order. RFix uses this to
	// approximate the extended candidate neighbor set without a brute-force
	// scan (§5.4).
	CollectVisited bool
	Visited        []Result
}

// NewSearcher returns a searcher bound to g.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{g: g, visited: minheap.NewVisited(g.Len())}
}

// Search runs Algorithm 1 from the graph's default entry point and returns
// the k closest live vertices found with search-list size L (L is clamped
// up to k).
func (s *Searcher) Search(q []float32, k, L int) ([]Result, Stats) {
	return s.SearchFrom(q, k, L, s.g.EntryPoint)
}

// SearchCtx is Search with cooperative cancellation; see SearchFromCtx.
func (s *Searcher) SearchCtx(ctx context.Context, q []float32, k, L int) ([]Result, Stats) {
	return s.SearchFromCtx(ctx, q, k, L, s.g.EntryPoint)
}

// SearchFrom is Search with an explicit entry vertex; it never truncates.
func (s *Searcher) SearchFrom(q []float32, k, L int, entry uint32) ([]Result, Stats) {
	return s.SearchFromCtx(nil, q, k, L, entry)
}

// SearchFromCtx is the paper's Algorithm 1 (greedy / beam search) with
// exact distances and cooperative cancellation: from entry, repeatedly
// expand the closest unexpanded candidate among the L best seen so far,
// and stop when none is left (see Beam). It returns the k closest live
// vertices found, with Stats.NDC counting every distance evaluated.
// Tombstoned vertices are navigated through but never returned.
//
// ctx (nil means never cancelled) is polled every cancelCheckEvery hop
// expansions; when it is cancelled or past its deadline the search stops
// where it stands and returns the best results found so far with
// Stats.Truncated set — a client that disconnects or a server budget that
// expires costs at most a few more hops, never a full search.
func (s *Searcher) SearchFromCtx(ctx context.Context, q []float32, k, L int, entry uint32) ([]Result, Stats) {
	return s.AppendSearch(ctx, nil, q, k, L, entry)
}

// AppendSearch is SearchFromCtx appending its results to dst and
// returning the extended slice, so a caller that passes the same buffer
// back each time allocates nothing per search.
func (s *Searcher) AppendSearch(ctx context.Context, dst []Result, q []float32, k, L int, entry uint32) ([]Result, Stats) {
	g := s.g
	if g.Len() == 0 {
		return dst, Stats{}
	}
	if L < k {
		L = k
	}
	// The distancer is prepared once per search: metric dispatch and (for
	// cosine) the query norm are hoisted out of the loop, and the graph's
	// row-norm cache kills the per-evaluation row-norm recomputation.
	s.rows = rowScorer{m: g.Vectors, qd: vec.NewQueryDistancer(g.Metric, q, g.norms)}
	st := s.search(ctx, &s.rows, L, L, entry)
	n := min(k, len(s.beam.e)-s.beam.dead)
	if dst == nil {
		dst = make([]Result, 0, n) // exactly sized, and empty rather than nil
	}
	return s.beam.appendLive(slices.Grow(dst, n), k), st
}

// IDs extracts the vertex ids from results.
func IDs(rs []Result) []uint32 {
	ids := make([]uint32, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

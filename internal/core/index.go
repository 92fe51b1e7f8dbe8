package core

import (
	"math/rand"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/parallel"
	"ngfix/internal/vec"
)

// Round is one NGFix(+RFix) pass over the historical queries. The paper
// runs two rounds — a large-K round for high-recall searches and a K=10
// round for small-k retrieval — with RFix enabled only on the first
// (its footnote: one RFix at K=30, L=100 also covers K=10).
type Round struct {
	// K is the neighborhood size this round repairs.
	K int
	// KMax caps the EH computation (0 → 2K).
	KMax int
	// Delta is the δ threshold (0 → KMax).
	Delta uint16
	// RFix enables reachability fixing in this round.
	RFix bool
}

// Options configures an Index.
type Options struct {
	// Rounds is the fixing schedule. Empty → the paper's two-round default.
	Rounds []Round
	// LEx bounds each vertex's extra out-degree (default 64, the paper's
	// cross-modal setting).
	LEx int
	// RFixL is the search-list size of RFix's reachability test
	// (default 100).
	RFixL int
	// Prune selects the eviction rule (Figure 14 ablation; default EH).
	Prune PruneMode
	// Seed drives randomized pruning and sampling.
	Seed int64
	// InsertM / InsertEF parameterize online base-graph insertion, the
	// algorithm hnsw.Build runs in batches (defaults 16 / 200). No server
	// flag sets them: ngfix-server's -m and -efc reach only the build.
	// Wiring them in waits until the op log records what an insert did
	// rather than its vector, so that replaying a log written under other
	// parameters cannot build a different graph.
	InsertM, InsertEF int
	// PreserveEntry keeps the graph's existing entry point instead of
	// re-pinning it to the medoid. Recovery paths set this so a restored
	// index searches from the same entry the snapshot was taken with.
	PreserveEntry bool
}

func (o Options) withDefaults() Options {
	if len(o.Rounds) == 0 {
		o.Rounds = []Round{{K: 30, RFix: true}, {K: 10}}
	}
	if o.LEx <= 0 {
		o.LEx = 64
	}
	if o.RFixL <= 0 {
		o.RFixL = 100
	}
	if o.InsertM <= 0 {
		o.InsertM = 16
	}
	if o.InsertEF <= 0 {
		o.InsertEF = 200
	}
	return o
}

// Index is a graph index maintained by NGFix/RFix. It wraps any base graph
// (HNSW bottom layer, NSG, ...) and owns the extra-edge repair state.
//
// Methods that mutate the graph (Fix*, Insert, Delete*, rebuilds) are
// single-writer; Search is safe for concurrent readers only while no
// writer runs. Use Searcher for per-goroutine search state.
type Index struct {
	// G is the underlying graph (base + extra edges).
	G *graph.Graph

	opts Options
	rng  *rand.Rand
	s    *graph.Searcher
	// ins inserts base rows, planning on s.
	ins *hnsw.Inserter
	// fix is the EH/NGFix scratch every fix pass of this index reuses.
	fix fixScratch
	// purged records tombstones whose edges were already removed by
	// PurgeAndRepair, so repeated purges do not redo their repair work.
	purged map[uint32]bool
}

// New wraps g in an Index. The graph's entry point is pinned to the
// medoid, the fixed entry of §5.4.
func New(g *graph.Graph, opts Options) *Index {
	o := opts.withDefaults()
	if g.Len() > 0 && !o.PreserveEntry {
		g.EntryPoint = g.Medoid()
	}
	ix := &Index{
		G:      g,
		opts:   o,
		rng:    rand.New(rand.NewSource(o.Seed + 1)),
		purged: make(map[uint32]bool),
	}
	ix.setSearcher(graph.NewSearcher(g))
	return ix
}

// setSearcher makes s the index's own searcher, for search, RFix and
// insertion alike.
func (ix *Index) setSearcher(s *graph.Searcher) {
	ix.s, ix.ins = s, hnsw.NewInserter(s)
}

// Options returns the effective (defaulted) options.
func (ix *Index) Options() Options { return ix.opts }

// Search runs a query through the fixed graph: top-k with search list ef,
// from the pinned entry point. Not safe for concurrent use; see Searcher.
func (ix *Index) Search(q []float32, k, ef int) ([]graph.Result, graph.Stats) {
	return ix.s.SearchFrom(q, k, ef, ix.G.EntryPoint)
}

// Searcher returns a new independent searcher over the index for use by
// one goroutine.
func (ix *Index) Searcher() *graph.Searcher { return graph.NewSearcher(ix.G) }

// ExactTruth computes exact nearest neighbors for the queries by brute
// force — the paper's accurate-but-slow preprocessing path.
func ExactTruth(base, queries *vec.Matrix, metric vec.Metric, k int) [][]bruteforce.Neighbor {
	return bruteforce.AllKNN(base, queries, metric, k)
}

// ApproxTruth computes approximate nearest neighbors for the queries by
// searching the current graph with list size ef — the paper's fast
// preprocessing path (§5.1), which Figure 13(a) shows costs almost no
// final index quality. Queries are processed in parallel (the paper's
// construction uses 32 threads; preprocessing is the dominant cost).
func (ix *Index) ApproxTruth(queries *vec.Matrix, k, ef int) [][]bruteforce.Neighbor {
	nq := queries.Rows()
	out := make([][]bruteforce.Neighbor, nq)
	nw := parallel.Workers(0, nq, 1)
	searchers := make([]*graph.Searcher, nw)
	parallel.For(nw, nq, 1, func(w, lo, hi int) {
		if searchers[w] == nil {
			searchers[w] = graph.NewSearcher(ix.G)
		}
		for i := lo; i < hi; i++ {
			res, _ := searchers[w].SearchFrom(queries.Row(i), k, ef, ix.G.EntryPoint)
			ns := make([]bruteforce.Neighbor, len(res))
			for j, r := range res {
				ns[j] = bruteforce.Neighbor{ID: r.ID, Dist: r.Dist}
			}
			out[i] = ns
		}
	})
	return out
}

// FixReport aggregates what a Fix pass did.
type FixReport struct {
	Queries        int
	NGFixEdges     int
	NGFixPruned    int
	RFixEdges      int
	RFixTriggered  int
	RFixReached    int
	DefectivePairs int // pairs above δ before fixing, summed
	Elapsed        time.Duration
	// PerQueryEdges records, per historical query, how many extra edges
	// NGFix added for it (Figure 13(b)'s correlation input).
	PerQueryEdges []int
}

// Fix applies the configured rounds to every historical query. truth must
// hold each query's NNs in ascending rank with length ≥ the largest
// round's KMax (longer is fine); use ExactTruth or ApproxTruth.
func (ix *Index) Fix(queries *vec.Matrix, truth [][]bruteforce.Neighbor) FixReport {
	start := time.Now()
	rep := FixReport{Queries: queries.Rows(), PerQueryEdges: make([]int, queries.Rows())}
	var nn []uint32
	for qi := 0; qi < queries.Rows(); qi++ {
		nn = nn[:0]
		for _, x := range truth[qi] {
			nn = append(nn, x.ID)
		}
		qr := ix.FixQuery(queries.Row(qi), nn)
		rep.NGFixEdges += qr.NGFixEdges
		rep.NGFixPruned += qr.NGFixPruned
		rep.RFixEdges += qr.RFixEdges
		if qr.RFixTriggered {
			rep.RFixTriggered++
		}
		if qr.RFixReached {
			rep.RFixReached++
		}
		rep.DefectivePairs += qr.DefectivePairs
		rep.PerQueryEdges[qi] = qr.NGFixEdges + qr.RFixEdges
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// QueryFixReport reports fixing work for one query.
type QueryFixReport struct {
	NGFixEdges     int
	NGFixPruned    int
	RFixEdges      int
	RFixTriggered  bool
	RFixReached    bool
	DefectivePairs int
}

// FixQuery applies the configured rounds for a single query whose
// ascending-rank NN ids are nn.
func (ix *Index) FixQuery(q []float32, nn []uint32) QueryFixReport {
	var out QueryFixReport
	out.RFixReached = true
	for _, r := range ix.opts.Rounds {
		np := NGFixParams{
			K: r.K, KMax: r.KMax, Delta: r.Delta,
			LEx: ix.opts.LEx, Prune: ix.opts.Prune, Rng: ix.rng,
		}
		st := ix.fix.ngfix(ix.G, nn, np)
		out.NGFixEdges += st.EdgesAdded
		out.NGFixPruned += st.EdgesPruned
		out.DefectivePairs += st.PairsAboveDelta
		if r.RFix {
			rst := rfix(ix.G, ix.s, &ix.fix, q, nn, RFixParams{
				K: r.K, L: ix.opts.RFixL, LEx: ix.opts.LEx,
			})
			out.RFixEdges += rst.EdgesAdded
			out.RFixTriggered = out.RFixTriggered || rst.Triggered
			out.RFixReached = rst.Reached
		}
	}
	return out
}

// Insert adds a new base vector through the build's insertion algorithm
// for one row (hnsw.Inserter) and returns its id. Extra edges are
// untouched (the partial-rebuild step is what refreshes them, per
// §5.5.1). The index's own searcher and inserter are reused across
// inserts — the visited set grows with the graph, and the planning
// buffers are kept — so streaming ingest does not allocate an O(n)
// scratch array, or fresh planning buffers, per vector.
func (ix *Index) Insert(v []float32) uint32 {
	return ix.ins.Insert(ix.G, v, ix.opts.InsertM, ix.opts.InsertEF)
}

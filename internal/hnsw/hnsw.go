// Package hnsw builds the flat base graph the paper builds its method on:
// the bottom layer of a Hierarchical Navigable Small World graph (Malkov &
// Yashunin), searched from the medoid. The upper layers are not built:
// nothing in this repository searches them, the paper fixes the bottom
// layer only, citing their limited value in high dimensions, and a flat
// graph matches the hierarchy there (Munyampirwa et al., "Down with the
// Hierarchy"). One insertion algorithm serves the build and online
// maintenance alike: a row is planned — an efConstruction beam search of
// the graph from its entry point, RNG-pruned to M out-neighbours — and
// committed — its out-list set, and each neighbour linked back to it
// under a 2M degree cap with the same RNG shrink. An Inserter runs it row
// by row (InsertIntoGraphWith for a single row); Build runs it over a
// whole matrix in batches.
package hnsw

import (
	"slices"

	"ngfix/internal/graph"
	"ngfix/internal/parallel"
	"ngfix/internal/vec"
)

// Config holds HNSW build parameters.
type Config struct {
	// M is the out-degree a row is planned with; link-backs let a list
	// grow to 2M (HNSW's "Mmax0" convention for the base layer).
	M int
	// EFConstruction is the beam width used while inserting.
	EFConstruction int
	// Metric is the distance function.
	Metric vec.Metric
	// Seed is ignored: the build draws nothing at random, so the graph is
	// a function of the vectors and the other fields alone. The field
	// stays for callers that still set it.
	Seed int64
}

// DefaultConfig mirrors the paper's baseline settings scaled to this
// repository's dataset sizes.
func DefaultConfig(metric vec.Metric) Config {
	return Config{M: 16, EFConstruction: 200, Metric: metric}
}

// Index is a built base graph.
type Index struct {
	g *graph.Graph
}

// Build inserts the rows of vectors in id order into a new graph, entry
// row 0, in batches: a batch's members plan concurrently against the
// graph as it stood before the batch, then commit. The graph is a
// function of the vectors and cfg alone, whatever the core count. Its
// entry point is then pinned to the medoid. See batchSize and DESIGN.md,
// "Building on all cores".
func Build(vectors *vec.Matrix, cfg Config) *Index {
	return build(vectors, cfg, batchSize)
}

// batchSize is the prefix-doubling schedule: the batch inserted after the
// first lo rows holds lo/32 rows, at least 1 and at most 256. A batch is
// small next to the graph its members search, so each member misses few
// of the neighbours a one-at-a-time insert would have seen; the graph
// doubles every 22 batches or so until batches reach 256 rows at 8 192.
func batchSize(lo int) int { return min(max(lo/32, 1), 256) }

// build is Build under an arbitrary batch schedule; schedule(lo) ≤ 1 at
// every lo is sequential insertion, row by row as InsertIntoGraphWith
// does it.
func build(vectors *vec.Matrix, cfg Config, schedule func(lo int) int) *Index {
	if cfg.M < 2 {
		panic("hnsw: M must be >= 2")
	}
	cfg.EFConstruction = max(cfg.EFConstruction, cfg.M)
	g := graph.New(vectors, cfg.Metric)
	n := g.Len()
	ws := make([]scratch, parallel.Workers(0, n, 1))
	for w := range ws {
		ws[w].s = graph.NewSearcher(g)
	}
	var (
		plans  [][]uint32
		keys   []uint64
		groups []int
	)
	for lo := 0; lo < n; {
		hi := min(lo+max(schedule(lo), 1), n)
		plans = slices.Grow(plans[:0], hi-lo)[:hi-lo]
		parallel.For(len(ws), hi-lo, 1, func(w, a, b int) {
			for i := a; i < b; i++ {
				plans[i] = ws[w].plan(g, uint32(lo+i), cfg.M, cfg.EFConstruction)
			}
		})
		keys, groups = commit(g, lo, plans, 2*cfg.M, ws, keys, groups)
		lo = hi
	}
	// The lists grew by appends on whichever worker ran their link-backs,
	// so they lie scattered through the heap with spare capacity. Copy
	// each once, in id order at its own length, as a decoded snapshot lays
	// them out: the memory a search walks then does not depend on how the
	// batches were scheduled.
	for u := range n {
		g.SetBaseNeighbors(uint32(u), slices.Clone(g.BaseNeighbors(uint32(u))))
	}
	if n > 0 {
		g.EntryPoint = g.Medoid()
	}
	return &Index{g: g}
}

// commit commits the plans of rows lo, lo+1, …: it sets each row's
// out-list, then runs the link-backs. Committing the rows one at a time
// would call linkBack for each row in id order, for each planned
// neighbour in plan order. Every target is a row from before the batch,
// and linkBack(u, …) reads and writes only u's list, so what a target's
// list ends as depends only on the order of the calls aimed at it: the
// calls are grouped by target, keeping that order within each group, and
// each group runs on one worker, with ws[w] as its scratch. keys and
// groups are reused buffers, returned for the next batch.
func commit(g *graph.Graph, lo int, plans [][]uint32, cap int, ws []scratch, keys []uint64, groups []int) ([]uint64, []int) {
	calls := 0
	for _, nbrs := range plans {
		calls += len(nbrs)
	}
	keys, groups = slices.Grow(keys[:0], calls), slices.Grow(groups[:0], calls+1)
	for i, nbrs := range plans {
		v := uint64(lo + i)
		g.SetBaseNeighbors(uint32(v), nbrs)
		for _, u := range nbrs {
			// Target in the high half, linked row in the low half: a row
			// plans a target at most once, so rows order a target's calls.
			keys = append(keys, uint64(u)<<32|v)
		}
	}
	slices.Sort(keys)
	// Cut the sorted calls into per-target groups, and hand the groups
	// out to the workers in chunks.
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			groups = append(groups, i)
		}
	}
	groups = append(groups, len(keys))
	parallel.For(len(ws), len(groups)-1, 16, func(w, a, b int) {
		for _, k := range keys[groups[a]:groups[b]] {
			ws[w].linkBack(g, uint32(k>>32), uint32(k), cap)
		}
	})
	return keys, groups
}

// Bottom returns the built graph, its entry point the medoid (the fixed
// entry of the fixing algorithms). The graph is the index's own, not a
// copy.
func (idx *Index) Bottom() *graph.Graph { return idx.g }

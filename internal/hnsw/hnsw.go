// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin), the base-graph builder and primary baseline of the
// paper. It provides the full hierarchical index (used as the "HNSW"
// comparison point), a bottom-layer export (the paper builds its method on
// HNSW's base layer only, citing the limited value of upper layers in
// high dimensions), and a level-0 insertion routine that the maintenance
// experiments use to grow a flat base graph in place.
package hnsw

import (
	"math"
	"math/rand"
	"slices"

	"ngfix/internal/graph"
	"ngfix/internal/minheap"
	"ngfix/internal/parallel"
	"ngfix/internal/vec"
)

// Config holds HNSW build parameters.
type Config struct {
	// M is the target out-degree on upper layers; layer 0 allows 2M
	// (the paper's "Mmax0" convention).
	M int
	// EFConstruction is the beam width used while inserting.
	EFConstruction int
	// Metric is the distance function.
	Metric vec.Metric
	// Seed drives level assignment; builds are deterministic per seed.
	Seed int64
}

// DefaultConfig mirrors the paper's baseline settings scaled to this
// repository's dataset sizes.
func DefaultConfig(metric vec.Metric) Config {
	return Config{M: 16, EFConstruction: 200, Metric: metric, Seed: 42}
}

// Index is a built HNSW graph.
type Index struct {
	cfg     Config
	vectors *vec.Matrix
	// links[u][l] is the adjacency of u at level l; len(links[u]) is u's
	// level + 1.
	links    [][][]uint32
	entry    uint32
	maxLevel int
	// norms caches every row's norm for cosine (nil otherwise), so scoring
	// pays one dot product per evaluation instead of three.
	norms []float32
}

// levelScratch is one build worker's (or one query's) reusable search
// state: allocating it per call would cost an O(n) visited set per level
// per insert.
type levelScratch struct {
	visited *minheap.Visited
	beam    graph.Beam
	ids     []uint32  // one hop's unvisited neighbours
	dists   []float32 // and their distances
	cands   []graph.Candidate
}

func newLevelScratch(n int) *levelScratch {
	return &levelScratch{visited: minheap.NewVisited(n)}
}

// score fills sc.dists with qd's distances to ids through one gather call.
func (idx *Index) score(qd *vec.QueryDistancer, sc *levelScratch, ids []uint32) []float32 {
	if cap(sc.dists) < len(ids) {
		sc.dists = make([]float32, len(ids)+16)
	}
	d := sc.dists[:len(ids)]
	qd.RowDistances(idx.vectors, ids, d)
	return d
}

// Build constructs an HNSW index over the given vectors. Rows are inserted
// in id order, in batches whose members search the graph as it stood
// before the batch, concurrently; the graph is a function of the vectors
// and cfg alone, whatever the core count. See batchSize and DESIGN.md,
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
// every lo is sequential insertion.
func build(vectors *vec.Matrix, cfg Config, schedule func(lo int) int) *Index {
	if cfg.M < 2 {
		panic("hnsw: M must be >= 2")
	}
	if cfg.EFConstruction < cfg.M {
		cfg.EFConstruction = cfg.M
	}
	n := vectors.Rows()
	idx := &Index{cfg: cfg, vectors: vectors, maxLevel: -1}
	if cfg.Metric == vec.Cosine {
		idx.norms = vec.RowNorms(vectors)
	}
	idx.links = make([][][]uint32, n)
	for i, level := range drawLevels(n, cfg) {
		idx.links[i] = make([][]uint32, level+1)
	}
	var (
		scratch []*levelScratch // one per worker
		reqs    []linkRequest
		keys    []uint64
	)
	for lo := 0; lo < n; {
		hi := min(lo+max(schedule(lo), 1), n)
		// A row that opens a new top level closes its batch, so the rows
		// after it descend from it, as they would inserted one at a time.
		for i := lo; i < hi; i++ {
			if len(idx.links[i])-1 > idx.maxLevel {
				hi = i + 1
				break
			}
		}
		nw := parallel.Workers(0, hi-lo, 1)
		for len(scratch) < nw {
			scratch = append(scratch, newLevelScratch(n))
		}
		parallel.For(nw, hi-lo, 1, func(w, a, b int) {
			for i := a; i < b; i++ {
				idx.selectNeighbors(uint32(lo+i), scratch[w])
			}
		})
		reqs, keys = idx.linkBack(lo, hi, scratch, reqs, keys)
		for i := lo; i < hi; i++ {
			if level := len(idx.links[i]) - 1; level > idx.maxLevel {
				idx.maxLevel, idx.entry = level, uint32(i)
			}
		}
		lo = hi
	}
	return idx
}

// drawLevels assigns every row its top level from cfg.Seed's stream, in id
// order: level ⌊−ln(U)·mL⌋ with mL = 1/ln M, so a row reaches level l with
// probability M^−l.
func drawLevels(n int, cfg Config) []int {
	rng := rand.New(rand.NewSource(cfg.Seed))
	levelMul := 1 / math.Log(float64(cfg.M))
	levels := make([]int, n)
	for i := range levels {
		levels[i] = int(-math.Log(1-rng.Float64()) * levelMul)
	}
	return levels
}

// Len returns the number of indexed vectors.
func (idx *Index) Len() int { return len(idx.links) }

// Entry returns the top-level entry point.
func (idx *Index) Entry() uint32 { return idx.entry }

// MaxLevel returns the highest populated level.
func (idx *Index) MaxLevel() int { return idx.maxLevel }

// Config returns the build configuration.
func (idx *Index) Config() Config { return idx.cfg }

func (idx *Index) maxDegree(level int) int {
	if level == 0 {
		return 2 * idx.cfg.M
	}
	return idx.cfg.M
}

// selectNeighbors fills row id's out-lists against the graph of the rows
// inserted before its batch: greedy descent through the levels above id's
// own, then at each level from min(its level, the top level) down an
// efConstruction beam search and an RNG prune to M neighbours. It writes
// only links[id] and reads only rows no batch member is linked from yet,
// so a batch's members run it concurrently, each on its own scratch.
func (idx *Index) selectNeighbors(id uint32, sc *levelScratch) {
	if idx.maxLevel < 0 {
		return // the first row: nothing to link to
	}
	nodeLinks := idx.links[id]
	level := len(nodeLinks) - 1
	qd := idx.rowDistancer(id)
	ep := idx.entry
	epDist := qd.RowDistance(idx.vectors, ep)
	for l := idx.maxLevel; l > level; l-- {
		ep, epDist = idx.greedyStep(&qd, sc, ep, epDist, l)
	}
	for l := min(level, idx.maxLevel); l >= 0; l-- {
		cands := idx.searchLevel(&qd, sc, ep, epDist, idx.cfg.EFConstruction, l)
		graph.SortCandidates(cands)
		selected := graph.RNGPruneNorms(idx.vectors, idx.cfg.Metric, idx.norms, cands, idx.cfg.M)
		nbrs := make([]uint32, len(selected))
		for i, c := range selected {
			nbrs[i] = c.ID
		}
		nodeLinks[l] = nbrs
		if len(cands) > 0 {
			ep, epDist = cands[0].ID, cands[0].Dist
		}
	}
}

// linkRequest is one reverse link of a batch: add v to u's level-l list.
type linkRequest struct {
	u, v uint32
	l    int
}

// linkBack adds the reverse links of batch [lo, hi). Sequential insertion
// would call connect for each member in id order, for each of its levels
// top-down, for each chosen neighbour in order. connect(u, …) reads and
// writes only u's lists, so what a target's lists end as depends only on
// the order of the calls aimed at that target: the requests are grouped
// by target, keeping that order within each group, and each group runs on
// one worker. reqs and keys are reused buffers, returned for the next
// batch.
func (idx *Index) linkBack(lo, hi int, scratch []*levelScratch, reqs []linkRequest, keys []uint64) ([]linkRequest, []uint64) {
	reqs, keys = reqs[:0], keys[:0]
	for i := lo; i < hi; i++ {
		ls := idx.links[i]
		for l := len(ls) - 1; l >= 0; l-- {
			for _, u := range ls[l] {
				// Target in the high half, call order in the low half.
				keys = append(keys, uint64(u)<<32|uint64(len(reqs)))
				reqs = append(reqs, linkRequest{u: u, v: uint32(i), l: l})
			}
		}
	}
	slices.Sort(keys)
	// Cut the sorted requests into per-target groups, and hand the groups
	// out to the workers in chunks.
	var groups []int
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			groups = append(groups, i)
		}
	}
	groups = append(groups, len(keys))
	parallel.For(len(scratch), len(groups)-1, 16, func(w, a, b int) {
		for _, k := range keys[groups[a]:groups[b]] {
			r := reqs[uint32(k)]
			idx.connect(r.u, r.v, r.l, scratch[w])
		}
	})
	return reqs, keys
}

// connect adds edge u→v at level l, shrinking u's list with the RNG
// heuristic when it exceeds the level's degree cap.
func (idx *Index) connect(u, v uint32, l int, sc *levelScratch) {
	ls := idx.links[u][l]
	if slices.Contains(ls, v) {
		return
	}
	ls = append(ls, v)
	if max := idx.maxDegree(l); len(ls) > max {
		ud := idx.rowDistancer(u)
		cands := sc.cands[:0]
		for i, d := range idx.score(&ud, sc, ls) {
			cands = append(cands, graph.Candidate{ID: ls[i], Dist: d})
		}
		sc.cands = cands
		graph.SortCandidates(cands)
		kept := graph.RNGPruneNorms(idx.vectors, idx.cfg.Metric, idx.norms, cands, max)
		ls = ls[:0]
		for _, c := range kept {
			ls = append(ls, c.ID)
		}
	}
	idx.links[u][l] = ls
}

// rowDistancer prepares distances from row id to other rows, taking its
// norm from the cache instead of recomputing it.
func (idx *Index) rowDistancer(id uint32) vec.QueryDistancer {
	var norm float32
	if idx.norms != nil {
		norm = idx.norms[id]
	}
	return vec.NewQueryDistancerNorm(idx.cfg.Metric, idx.vectors.Row(int(id)), norm, idx.norms)
}

// greedyStep walks one level greedily until no neighbor improves, scoring
// each visited list in one gather call.
func (idx *Index) greedyStep(qd *vec.QueryDistancer, sc *levelScratch, ep uint32, epDist float32, l int) (uint32, float32) {
	for {
		improved := false
		nbrs := idx.neighborsAt(ep, l)
		for i, d := range idx.score(qd, sc, nbrs) {
			if d < epDist {
				ep, epDist = nbrs[i], d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

func (idx *Index) neighborsAt(u uint32, l int) []uint32 {
	nl := idx.links[u]
	if l >= len(nl) {
		return nil
	}
	return nl[l]
}

// searchLevel is beam search restricted to one level, returning up to ef
// candidates in ascending distance. It runs on graph.Beam, the
// candidate list of the graph package's beam loop, with each hop's
// unvisited neighbours scored in one gather call. Distances come from qd
// (which counts them); sc is reset here and must not be shared by
// concurrent calls. The result aliases sc until its next use.
func (idx *Index) searchLevel(qd *vec.QueryDistancer, sc *levelScratch, ep uint32, epDist float32, ef, l int) []graph.Candidate {
	sc.visited.Reset()
	sc.visited.Visit(ep)
	sc.beam.Reset(ef, ef)
	sc.ids = append(sc.ids[:0], ep)
	sc.dists = append(sc.dists[:0], epDist)
	sc.beam.Push(sc.ids, sc.dists, nil)
	for {
		cur, ok := sc.beam.Next()
		if !ok {
			break
		}
		sc.ids = sc.visited.AppendUnvisited(sc.ids[:0], idx.neighborsAt(cur, l))
		sc.beam.Push(sc.ids, idx.score(qd, sc, sc.ids), nil)
	}
	out := sc.cands[:0]
	for _, e := range sc.beam.Entries() {
		out = append(out, graph.Candidate{ID: e.ID(), Dist: e.Dist})
	}
	sc.cands = out
	return out
}

// Search runs the standard hierarchical HNSW query: greedy descent to
// level 1, then beam search with width ef at level 0. Results are the
// top-k in ascending distance.
func (idx *Index) Search(q []float32, k, ef int) ([]graph.Result, graph.Stats) {
	if len(idx.links) == 0 {
		return nil, graph.Stats{}
	}
	if ef < k {
		ef = k
	}
	qd := vec.NewQueryDistancer(idx.cfg.Metric, q, idx.norms)
	sc := newLevelScratch(len(idx.links))
	ep := idx.entry
	epDist := qd.RowDistance(idx.vectors, ep)
	for l := idx.maxLevel; l >= 1; l-- {
		ep, epDist = idx.greedyStep(&qd, sc, ep, epDist, l)
	}
	cands := idx.searchLevel(&qd, sc, ep, epDist, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]graph.Result, len(cands))
	for i, c := range cands {
		out[i] = graph.Result{ID: c.ID, Dist: c.Dist}
	}
	return out, graph.Stats{NDC: qd.Count}
}

// Bottom exports the level-0 layer as a graph.Graph sharing the vector
// matrix. The exported graph's entry point is the index medoid, matching
// the fixed-entry convention of the fixing algorithms. Adjacency slices
// are copied, so later mutation of the export does not corrupt the HNSW
// index (and vice versa).
func (idx *Index) Bottom() *graph.Graph {
	g := graph.New(idx.vectors, idx.cfg.Metric)
	for u := range idx.links {
		if len(idx.links[u]) > 0 {
			g.SetBaseNeighbors(uint32(u), append([]uint32(nil), idx.links[u][0]...))
		}
	}
	if len(idx.links) > 0 {
		g.EntryPoint = g.Medoid()
	}
	return g
}

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

	"ngfix/internal/graph"
	"ngfix/internal/minheap"
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
	rng      *rand.Rand
	levelMul float64
	// norms caches every row's norm for cosine (nil otherwise), so scoring
	// pays one dot product per evaluation instead of three.
	norms []float32
	// build is the sequential builder's beam-search scratch.
	build levelScratch
}

// levelScratch is the reusable state of one searchLevel call: allocating
// it per call would cost an O(n) visited set per level per insert.
type levelScratch struct {
	visited *minheap.Visited
	beam    graph.Beam
	ids     []uint32  // one hop's unvisited neighbours
	dists   []float32 // and their distances
}

func newLevelScratch(n int) levelScratch {
	return levelScratch{visited: minheap.NewVisited(n)}
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

// Build constructs an HNSW index over the given vectors by sequential
// insertion.
func Build(vectors *vec.Matrix, cfg Config) *Index {
	if cfg.M < 2 {
		panic("hnsw: M must be >= 2")
	}
	if cfg.EFConstruction < cfg.M {
		cfg.EFConstruction = cfg.M
	}
	idx := &Index{
		cfg:      cfg,
		vectors:  vectors,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		levelMul: 1 / math.Log(float64(cfg.M)),
		maxLevel: -1,
	}
	n := vectors.Rows()
	idx.links = make([][][]uint32, 0, n)
	if cfg.Metric == vec.Cosine {
		idx.norms = vec.RowNorms(vectors)
	}
	idx.build = newLevelScratch(n)
	for i := 0; i < n; i++ {
		idx.insert(uint32(i))
	}
	return idx
}

// Len returns the number of indexed vectors.
func (idx *Index) Len() int { return len(idx.links) }

// Entry returns the top-level entry point.
func (idx *Index) Entry() uint32 { return idx.entry }

// MaxLevel returns the highest populated level.
func (idx *Index) MaxLevel() int { return idx.maxLevel }

// Config returns the build configuration.
func (idx *Index) Config() Config { return idx.cfg }

func (idx *Index) randomLevel() int {
	return int(-math.Log(1-idx.rng.Float64()) * idx.levelMul)
}

func (idx *Index) maxDegree(level int) int {
	if level == 0 {
		return 2 * idx.cfg.M
	}
	return idx.cfg.M
}

// insert adds vector id (which must equal len(links)) to the index.
func (idx *Index) insert(id uint32) {
	level := idx.randomLevel()
	nodeLinks := make([][]uint32, level+1)
	idx.links = append(idx.links, nodeLinks)

	if len(idx.links) == 1 {
		idx.entry = id
		idx.maxLevel = level
		return
	}

	qd := idx.rowDistancer(id)
	ep := idx.entry
	epDist := qd.RowDistance(idx.vectors, ep)
	// Greedy descent through levels above the new node's level.
	for l := idx.maxLevel; l > level; l-- {
		ep, epDist = idx.greedyStep(&qd, &idx.build, ep, epDist, l)
	}
	// Beam search + connect on each level from min(level, maxLevel) down.
	top := level
	if top > idx.maxLevel {
		top = idx.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := idx.searchLevel(&qd, &idx.build, ep, epDist, idx.cfg.EFConstruction, l)
		graph.SortCandidates(cands)
		selected := graph.RNGPruneNorms(idx.vectors, idx.cfg.Metric, idx.norms, cands, idx.cfg.M)
		nbrs := make([]uint32, len(selected))
		for i, c := range selected {
			nbrs[i] = c.ID
		}
		nodeLinks[l] = nbrs
		for _, c := range selected {
			idx.connect(c.ID, id, c.Dist, l)
		}
		if len(cands) > 0 {
			ep, epDist = cands[0].ID, cands[0].Dist
		}
	}
	if level > idx.maxLevel {
		idx.maxLevel = level
		idx.entry = id
	}
}

// connect adds edge u→v at level l, shrinking u's list with the RNG
// heuristic when it exceeds the level's degree cap.
func (idx *Index) connect(u, v uint32, dist float32, l int) {
	ls := idx.links[u][l]
	for _, w := range ls {
		if w == v {
			return
		}
	}
	ls = append(ls, v)
	max := idx.maxDegree(l)
	if len(ls) > max {
		ud := idx.rowDistancer(u)
		cands := make([]graph.Candidate, len(ls))
		for i, w := range ls {
			cands[i] = graph.Candidate{ID: w, Dist: ud.RowDistance(idx.vectors, w)}
		}
		graph.SortCandidates(cands)
		kept := graph.RNGPruneNorms(idx.vectors, idx.cfg.Metric, idx.norms, cands, max)
		ls = ls[:0]
		for _, c := range kept {
			ls = append(ls, c.ID)
		}
	}
	idx.links[u][l] = ls
	_ = dist
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
// concurrent calls.
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
	entries := sc.beam.Entries()
	out := make([]graph.Candidate, len(entries))
	for i, e := range entries {
		out[i] = graph.Candidate{ID: e.ID(), Dist: e.Dist}
	}
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
		ep, epDist = idx.greedyStep(&qd, &sc, ep, epDist, l)
	}
	cands := idx.searchLevel(&qd, &sc, ep, epDist, ef, 0)
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

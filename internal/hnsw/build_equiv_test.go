package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/minheap"
	"ngfix/internal/vec"
)

// refBuild is the builder as it was before it grew reusable scratch and a
// norm-cached distancer: fresh visited set and heaps per level, every
// distance through Metric.Distance. Build must produce the same graph.
func refBuild(vectors *vec.Matrix, cfg Config) *Index {
	idx := &Index{
		cfg:      cfg,
		vectors:  vectors,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		levelMul: 1 / math.Log(float64(cfg.M)),
		maxLevel: -1,
	}
	dist := func(x []float32, id uint32) float32 {
		return cfg.Metric.Distance(x, vectors.Row(int(id)))
	}
	prune := func(cands []graph.Candidate, max int) []graph.Candidate {
		kept := make([]graph.Candidate, 0, max)
		for _, c := range cands {
			if len(kept) >= max {
				break
			}
			occluded := false
			for _, s := range kept {
				if dist(vectors.Row(int(s.ID)), c.ID) < c.Dist {
					occluded = true
					break
				}
			}
			if !occluded {
				kept = append(kept, c)
			}
		}
		return kept
	}
	searchLevel := func(q []float32, ep uint32, epDist float32, l int) []graph.Candidate {
		visited := minheap.NewVisited(len(idx.links))
		cand := minheap.NewMin(cfg.EFConstruction)
		results := minheap.NewBounded(cfg.EFConstruction)
		visited.Visit(ep)
		cand.Push(minheap.Item{ID: ep, Dist: epDist})
		results.Push(minheap.Item{ID: ep, Dist: epDist})
		for cand.Len() > 0 {
			cur := cand.Pop()
			if worst, ok := results.MaxDist(); ok && results.Full() && cur.Dist > worst {
				break
			}
			for _, v := range idx.neighborsAt(cur.ID, l) {
				if visited.Visit(v) {
					continue
				}
				if d := dist(q, v); results.WouldAccept(d) {
					cand.Push(minheap.Item{ID: v, Dist: d})
					results.Push(minheap.Item{ID: v, Dist: d})
				}
			}
		}
		var out []graph.Candidate
		for _, it := range results.SortedAscending() {
			out = append(out, graph.Candidate{ID: it.ID, Dist: it.Dist})
		}
		return out
	}
	connect := func(u, v uint32, l int) {
		ls := idx.links[u][l]
		for _, w := range ls {
			if w == v {
				return
			}
		}
		ls = append(ls, v)
		if max := idx.maxDegree(l); len(ls) > max {
			cands := make([]graph.Candidate, len(ls))
			for i, w := range ls {
				cands[i] = graph.Candidate{ID: w, Dist: dist(vectors.Row(int(u)), w)}
			}
			graph.SortCandidates(cands)
			ls = ls[:0]
			for _, c := range prune(cands, max) {
				ls = append(ls, c.ID)
			}
		}
		idx.links[u][l] = ls
	}
	for i := 0; i < vectors.Rows(); i++ {
		id := uint32(i)
		level := idx.randomLevel()
		nodeLinks := make([][]uint32, level+1)
		idx.links = append(idx.links, nodeLinks)
		q := vectors.Row(i)
		if i == 0 {
			idx.entry, idx.maxLevel = id, level
			continue
		}
		ep := idx.entry
		epDist := dist(q, ep)
		for l := idx.maxLevel; l > level; l-- {
			for improved := true; improved; {
				improved = false
				for _, v := range idx.neighborsAt(ep, l) {
					if d := dist(q, v); d < epDist {
						ep, epDist, improved = v, d, true
					}
				}
			}
		}
		for l := min(level, idx.maxLevel); l >= 0; l-- {
			cands := searchLevel(q, ep, epDist, l)
			graph.SortCandidates(cands)
			selected := prune(cands, cfg.M)
			nodeLinks[l] = make([]uint32, len(selected))
			for j, c := range selected {
				nodeLinks[l][j] = c.ID
			}
			for _, c := range selected {
				connect(c.ID, id, l)
			}
			if len(cands) > 0 {
				ep, epDist = cands[0].ID, cands[0].Dist
			}
		}
		if level > idx.maxLevel {
			idx.maxLevel, idx.entry = level, id
		}
	}
	return idx
}

// TestBuildMatchesReference pins that the scratch-reusing, norm-cached
// builder produces the reference builder's adjacency bit for bit, on
// every metric and both kernel arms (the arms round differently, so each
// is compared against the reference built under the same arm).
func TestBuildMatchesReference(t *testing.T) {
	defer vec.SetSIMD(true)
	m := randomMatrix(11, 600, 24)
	for _, simd := range []bool{true, false} {
		vec.SetSIMD(simd)
		for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.InnerProduct} {
			cfg := Config{M: 6, EFConstruction: 40, Metric: metric, Seed: 7}
			got, want := Build(m, cfg), refBuild(m, cfg)
			if got.entry != want.entry || got.maxLevel != want.maxLevel {
				t.Fatalf("%s/%v: entry %d level %d, reference entry %d level %d",
					vec.KernelName(), metric, got.entry, got.maxLevel, want.entry, want.maxLevel)
			}
			if !reflect.DeepEqual(got.links, want.links) {
				t.Fatalf("%s/%v: adjacency differs from the reference builder", vec.KernelName(), metric)
			}
		}
	}
}

// adjacencyHash is FNV-1a over the entry point, the top level and every
// vertex's per-level out-lists in order.
func adjacencyHash(idx *Index) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	put(idx.entry)
	put(uint32(idx.maxLevel))
	for _, levels := range idx.links {
		put(uint32(len(levels)))
		for _, ls := range levels {
			put(uint32(len(ls)))
			for _, v := range ls {
				put(v)
			}
		}
	}
	return h.Sum64()
}

// TestBuildAdjacencyPinned pins the graph a seeded build produces, per
// kernel arm (the arms round differently, so each builds its own graph).
// The hashes were recorded from the heap-based builder; a change to the
// search or the kernels that alters a single edge fails here.
func TestBuildAdjacencyPinned(t *testing.T) {
	pinned := map[string]map[vec.Metric]uint64{
		"avx2":   {vec.L2: 0x31a887af42dd035f, vec.Cosine: 0x4acda96720ada079},
		"scalar": {vec.L2: 0x31a887af42dd035f, vec.Cosine: 0x4acda96720ada079},
	}
	defer vec.SetSIMD(true)
	m := randomMatrix(23, 3000, 32)
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		want, ok := pinned[vec.KernelName()]
		if !ok {
			t.Logf("no pinned hash for kernel %s", vec.KernelName())
			continue
		}
		for _, metric := range []vec.Metric{vec.L2, vec.Cosine} {
			got := adjacencyHash(Build(m, Config{M: 8, EFConstruction: 64, Metric: metric, Seed: 5}))
			if got != want[metric] {
				t.Errorf("%s/%v: adjacency hash %#x, pinned %#x", vec.KernelName(), metric, got, want[metric])
			}
		}
	}
}

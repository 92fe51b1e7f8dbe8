package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/metrics"
	"ngfix/internal/minheap"
	"ngfix/internal/vec"
)

// refBuild is the builder as it was before it grew reusable scratch, a
// norm-cached distancer and batches: one row at a time, fresh visited set
// and heaps per level, every distance through Metric.Distance. Build under
// the one-row schedule must produce the same graph.
func refBuild(vectors *vec.Matrix, cfg Config) *Index {
	idx := &Index{cfg: cfg, vectors: vectors, maxLevel: -1}
	rng := rand.New(rand.NewSource(cfg.Seed))
	levelMul := 1 / math.Log(float64(cfg.M))
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
		level := int(-math.Log(1-rng.Float64()) * levelMul)
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

// oneRow is the batch schedule of sequential insertion.
func oneRow(int) int { return 1 }

// TestBuildMatchesReference pins that the batch builder, forced to batches
// of one row, produces the reference builder's adjacency bit for bit, on
// every metric and both kernel arms (the arms round differently, so each
// is compared against the reference built under the same arm). Together
// with TestBuildSameAtAnyCoreCount this makes the reference the oracle of
// everything the batch builder does except the schedule itself.
func TestBuildMatchesReference(t *testing.T) {
	defer vec.SetSIMD(true)
	m := randomMatrix(11, 600, 24)
	for _, simd := range []bool{true, false} {
		vec.SetSIMD(simd)
		for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.InnerProduct} {
			cfg := Config{M: 6, EFConstruction: 40, Metric: metric, Seed: 7}
			got, want := build(m, cfg, oneRow), refBuild(m, cfg)
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
// kernel arm (the arms round differently, so each builds its own graph),
// under the batch schedule and under one-row batches. The one-row hashes
// are those the sequential builder recorded; a change to the search, the
// kernels or the schedule that alters a single edge fails here.
func TestBuildAdjacencyPinned(t *testing.T) {
	type key struct {
		metric     vec.Metric
		sequential bool
	}
	hashes := map[key]uint64{
		{vec.L2, false}:     0x73cf3a3a250ad75,
		{vec.Cosine, false}: 0xa9b4b92526bb41fc,
		{vec.L2, true}:      0x31a887af42dd035f,
		{vec.Cosine, true}:  0x4acda96720ada079,
	}
	pinned := map[string]map[key]uint64{"avx2": hashes, "scalar": hashes}
	defer vec.SetSIMD(true)
	m := randomMatrix(23, 3000, 32)
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		want, ok := pinned[vec.KernelName()]
		if !ok {
			t.Logf("no pinned hash for kernel %s", vec.KernelName())
			continue
		}
		for k, h := range want {
			schedule := batchSize
			if k.sequential {
				schedule = oneRow
			}
			got := adjacencyHash(build(m, Config{M: 8, EFConstruction: 64, Metric: k.metric, Seed: 5}, schedule))
			if got != h {
				t.Errorf("%s/%v/sequential=%v: adjacency hash %#x, pinned %#x", vec.KernelName(), k.metric, k.sequential, got, h)
			}
		}
	}
}

// TestBuildSameAtAnyCoreCount pins the determinism argument: a batch's
// members search a frozen graph and its reverse links are applied per
// target in id order, so neither how many workers run nor which of them
// takes which row can change a single edge.
func TestBuildSameAtAnyCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := randomMatrix(29, 2500, 16)
	for _, metric := range []vec.Metric{vec.L2, vec.Cosine} {
		cfg := Config{M: 8, EFConstruction: 48, Metric: metric, Seed: 3}
		var want uint64
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := adjacencyHash(Build(m, cfg))
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%v: GOMAXPROCS %d hash %#x, GOMAXPROCS 1 hash %#x", metric, procs, got, want)
			}
		}
	}
}

// TestBatchBuildQualityMatchesSequential is the quality guard on the
// schedule: on a seeded clustered fixture, the bottom layer the batch
// builder exports serves recall@10 at ef 32 within 0.01 of the sequential
// reference's, searched the way the serving layer searches it.
func TestBatchBuildQualityMatchesSequential(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "hnsw-quality", N: 4000, NHist: 10, NTest: 200,
		Dim: 24, Clusters: 16, Metric: vec.L2,
		GapMagnitude: 1.2, ClusterStd: 0.25, QueryStdScale: 1.4,
		Seed: 17,
	})
	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, 10)
	cfg := Config{M: 8, EFConstruction: 64, Metric: vec.L2, Seed: 9}
	recall := func(idx *Index) float64 {
		g := idx.Bottom()
		s := graph.NewSearcher(g)
		var sum float64
		for qi := 0; qi < d.TestOOD.Rows(); qi++ {
			res, _ := s.SearchFrom(d.TestOOD.Row(qi), 10, 32, g.EntryPoint)
			sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
		}
		return sum / float64(d.TestOOD.Rows())
	}
	batch, seq := recall(Build(d.Base, cfg)), recall(refBuild(d.Base, cfg))
	t.Logf("recall@10 at ef 32: batch %.4f, sequential %.4f", batch, seq)
	if batch < seq-0.01 {
		t.Fatalf("batch build recall@10 %.4f more than 0.01 below sequential %.4f", batch, seq)
	}
}

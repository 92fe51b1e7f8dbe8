package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// oneRow is the batch schedule of sequential insertion.
func oneRow(int) int { return 1 }

// sequentialBuild inserts the rows of m one at a time through
// InsertIntoGraphWith, the online insert, onto an empty graph, and pins
// the entry point to the medoid as Build does.
func sequentialBuild(m *vec.Matrix, cfg Config) *graph.Graph {
	g := graph.New(vec.NewMatrix(0, m.Dim()), cfg.Metric)
	s := graph.NewSearcher(g)
	for i := 0; i < m.Rows(); i++ {
		InsertIntoGraphWith(g, s, m.Row(i), cfg.M, cfg.EFConstruction)
	}
	if g.Len() > 0 {
		g.EntryPoint = g.Medoid()
	}
	return g
}

// TestBuildMatchesReference pins that the batch builder, forced to batches
// of one row, produces the online insert's graph bit for bit, on every
// metric and both kernel arms (the arms round differently, so each is
// compared against the inserts run under the same arm). Together with
// TestBuildSameAtAnyCoreCount this makes the online insert the oracle of
// everything the batch builder does except the schedule itself.
func TestBuildMatchesReference(t *testing.T) {
	defer vec.SetSIMD(true)
	m := randomMatrix(11, 600, 24)
	for _, simd := range []bool{true, false} {
		vec.SetSIMD(simd)
		for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.InnerProduct} {
			cfg := Config{M: 6, EFConstruction: 40, Metric: metric}
			got, want := build(m, cfg, oneRow).Bottom(), sequentialBuild(m, cfg)
			if got.EntryPoint != want.EntryPoint {
				t.Fatalf("%s/%v: entry %d, online inserts' entry %d", vec.KernelName(), metric, got.EntryPoint, want.EntryPoint)
			}
			for u := range got.Len() {
				if !slices.Equal(got.Neighbors(uint32(u)), want.Neighbors(uint32(u))) {
					t.Fatalf("%s/%v: row %d out-list %v, online inserts' %v", vec.KernelName(), metric, u,
						got.Neighbors(uint32(u)), want.Neighbors(uint32(u)))
				}
			}
		}
	}
}

// adjacencyHash is FNV-1a over the entry point and every vertex's
// out-list in order.
func adjacencyHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	put(g.EntryPoint)
	for u := range g.Len() {
		ls := g.Neighbors(uint32(u))
		put(uint32(len(ls)))
		for _, v := range ls {
			put(v)
		}
	}
	return h.Sum64()
}

// TestBuildAdjacencyPinned pins the graph a seeded build produces, per
// kernel arm (the arms round differently, so each builds its own graph),
// under the batch schedule and under one-row batches (the online insert's
// graph, see TestBuildMatchesReference); a change to the search, the
// kernels or the schedule that alters a single edge fails here.
func TestBuildAdjacencyPinned(t *testing.T) {
	type key struct {
		metric     vec.Metric
		sequential bool
	}
	hashes := map[key]uint64{
		{vec.L2, false}:     0x7a9a8f5d64ba12a8,
		{vec.Cosine, false}: 0xc2582f14a3046cb2,
		{vec.L2, true}:      0xfb40a17a420c3d04,
		{vec.Cosine, true}:  0x872223d71bc3aec4,
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
			got := adjacencyHash(build(m, Config{M: 8, EFConstruction: 64, Metric: k.metric}, schedule).Bottom())
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
		cfg := Config{M: 8, EFConstruction: 48, Metric: metric}
		var want uint64
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := adjacencyHash(Build(m, cfg).Bottom())
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%v: GOMAXPROCS %d hash %#x, GOMAXPROCS 1 hash %#x", metric, procs, got, want)
			}
		}
	}
}

// TestBatchBuildQualityMatchesSequential is the quality guard on the
// schedule: on a seeded clustered fixture, the graph the batch builder
// builds serves recall@10 at ef 32 within 0.01 of the graph sequential
// online inserts build, searched the way the serving layer searches it.
func TestBatchBuildQualityMatchesSequential(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "hnsw-quality", N: 4000, NHist: 10, NTest: 200,
		Dim: 24, Clusters: 16, Metric: vec.L2,
		GapMagnitude: 1.2, ClusterStd: 0.25, QueryStdScale: 1.4,
		Seed: 17,
	})
	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, 10)
	cfg := Config{M: 8, EFConstruction: 64, Metric: vec.L2}
	recall := func(g *graph.Graph) float64 {
		s := graph.NewSearcher(g)
		var sum float64
		for qi := 0; qi < d.TestOOD.Rows(); qi++ {
			res, _ := s.SearchFrom(d.TestOOD.Row(qi), 10, 32, g.EntryPoint)
			sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
		}
		return sum / float64(d.TestOOD.Rows())
	}
	batch, seq := recall(Build(d.Base, cfg).Bottom()), recall(sequentialBuild(d.Base, cfg))
	t.Logf("recall@10 at ef 32: batch %.4f, sequential %.4f", batch, seq)
	if batch < seq-0.01 {
		t.Fatalf("batch build recall@10 %.4f more than 0.01 below sequential %.4f", batch, seq)
	}
}

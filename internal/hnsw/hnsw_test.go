package hnsw

import (
	"math/rand"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

func randomMatrix(seed int64, n, dim int) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	return m
}

func TestBuildSmall(t *testing.T) {
	m := randomMatrix(1, 200, 8)
	idx := Build(m, Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
	if idx.Len() != 200 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if idx.MaxLevel() < 0 {
		t.Fatal("no levels assigned")
	}
	// Degree caps respected at every level.
	for u := 0; u < idx.Len(); u++ {
		for l := 0; l < len(idx.links[u]); l++ {
			max := idx.maxDegree(l)
			if len(idx.links[u][l]) > max {
				t.Fatalf("node %d level %d degree %d > cap %d", u, l, len(idx.links[u][l]), max)
			}
			for _, v := range idx.links[u][l] {
				if v == uint32(u) {
					t.Fatal("self loop")
				}
				if int(v) >= idx.Len() {
					t.Fatal("edge out of range")
				}
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	m := randomMatrix(2, 100, 4)
	a := Build(m, Config{M: 6, EFConstruction: 40, Metric: vec.L2, Seed: 7})
	b := Build(m, Config{M: 6, EFConstruction: 40, Metric: vec.L2, Seed: 7})
	if a.Entry() != b.Entry() || a.MaxLevel() != b.MaxLevel() {
		t.Fatal("same seed, different structure")
	}
	for u := range a.links {
		if len(a.links[u]) != len(b.links[u]) {
			t.Fatal("level mismatch")
		}
		for l := range a.links[u] {
			if len(a.links[u][l]) != len(b.links[u][l]) {
				t.Fatal("adjacency mismatch")
			}
		}
	}
}

func TestSearchRecall(t *testing.T) {
	m := randomMatrix(3, 1000, 12)
	idx := Build(m, Config{M: 12, EFConstruction: 120, Metric: vec.L2, Seed: 3})
	queries := randomMatrix(4, 50, 12)
	gt := bruteforce.AllKNN(m, queries, vec.L2, 10)
	var sum float64
	for qi := 0; qi < queries.Rows(); qi++ {
		res, st := idx.Search(queries.Row(qi), 10, 100)
		if st.NDC == 0 {
			t.Fatal("NDC not counted")
		}
		sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				t.Fatal("results not ascending")
			}
		}
	}
	if avg := sum / 50; avg < 0.9 {
		t.Fatalf("in-distribution recall@10 = %.3f, want >= 0.9", avg)
	}
}

func TestSearchEmptyAndTiny(t *testing.T) {
	empty := Build(vec.NewMatrix(0, 3), Config{M: 4, EFConstruction: 8, Metric: vec.L2})
	if res, _ := empty.Search([]float32{0, 0, 0}, 3, 5); res != nil {
		t.Fatal("empty index should return nil")
	}
	one := Build(vec.MatrixFromRows([][]float32{{1, 2, 3}}), Config{M: 4, EFConstruction: 8, Metric: vec.L2})
	res, _ := one.Search([]float32{1, 2, 3}, 3, 5)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("single-point search = %v", res)
	}
}

func TestBottomExport(t *testing.T) {
	m := randomMatrix(5, 300, 8)
	idx := Build(m, Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 5})
	g := idx.Bottom()
	if g.Len() != 300 {
		t.Fatalf("bottom graph len %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("bottom graph invalid: %v", err)
	}
	// Export must not alias the index adjacency.
	before := len(idx.links[0][0])
	g.SetBaseNeighbors(0, nil)
	if len(idx.links[0][0]) != before {
		t.Fatal("Bottom aliases index adjacency")
	}
	// Bottom-layer search should be usable and accurate.
	queries := randomMatrix(6, 20, 8)
	gt := bruteforce.AllKNN(m, queries, vec.L2, 5)
	g2 := idx.Bottom()
	s := graph.NewSearcher(g2)
	var sum float64
	for qi := 0; qi < 20; qi++ {
		res, _ := s.Search(queries.Row(qi), 5, 50)
		sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
	}
	if avg := sum / 20; avg < 0.9 {
		t.Fatalf("bottom-layer recall@5 = %.3f", avg)
	}
}

func TestInsertIntoGraph(t *testing.T) {
	m := randomMatrix(7, 200, 6)
	idx := Build(m.Slice(0, 150).Clone(), Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 7})
	g := idx.Bottom()
	// Insert the held-out 50 points.
	for i := 150; i < 200; i++ {
		id := InsertIntoGraph(g, m.Row(i), 8, 60)
		if int(id) != i-150+150 {
			t.Fatalf("insert id = %d", id)
		}
	}
	if g.Len() != 200 {
		t.Fatalf("graph len %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	// Degree cap 2m respected.
	for u := 0; u < g.Len(); u++ {
		if d := len(g.BaseNeighbors(uint32(u))); d > 16 {
			t.Fatalf("vertex %d degree %d > 16", u, d)
		}
	}
	// Inserted points are findable.
	s := graph.NewSearcher(g)
	found := 0
	for i := 150; i < 200; i++ {
		res, _ := s.Search(m.Row(i), 1, 40)
		if len(res) > 0 && res[0].ID == uint32(i) {
			found++
		}
	}
	if found < 45 {
		t.Fatalf("only %d/50 inserted points are their own NN", found)
	}
}

func TestInsertIntoEmptyGraph(t *testing.T) {
	g := graph.New(vec.NewMatrix(0, 2), vec.L2)
	id := InsertIntoGraph(g, []float32{1, 1}, 4, 8)
	if id != 0 || g.EntryPoint != 0 || g.Len() != 1 {
		t.Fatal("first insert should become the entry point")
	}
	id2 := InsertIntoGraph(g, []float32{2, 2}, 4, 8)
	if id2 != 1 || !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Fatal("second insert should link both ways")
	}
}

func TestHierarchicalSweepWorks(t *testing.T) {
	m := randomMatrix(8, 400, 8)
	idx := Build(m, Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 8})
	queries := randomMatrix(9, 10, 8)
	gt := bruteforce.AllKNN(m, queries, vec.L2, 5)
	curve := metrics.SweepFunc(idx.Search, metrics.SweepConfig{
		K: 5, EFs: []int{5, 20, 50}, Queries: queries, Truth: gt,
	})
	if len(curve) != 3 || curve[2].Recall < curve[0].Recall-1e-9 {
		t.Fatalf("sweep curve malformed: %+v", curve)
	}
}

// BenchmarkBuild builds the serving benchmark's shape: 10 000 unit-norm
// cosine rows of dim 128 in 64 clusters, M 16, efConstruction 100.
func BenchmarkBuild(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "hnsw-build", N: 10000, NHist: 1, NTest: 1,
		Dim: 128, Clusters: 64, Metric: vec.Cosine,
		GapMagnitude: 2.0, ClusterStd: 0.2, QueryStdScale: 1.8,
		Normalize: true, Seed: 8021,
	})
	cfg := Config{M: 16, EFConstruction: 100, Metric: vec.Cosine, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d.Base, cfg)
	}
}

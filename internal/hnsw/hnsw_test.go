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
	g := Build(m, Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	if g.Len() != 200 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every row is linked, within the 2M degree cap.
	for u := 0; u < g.Len(); u++ {
		if d := len(g.BaseNeighbors(uint32(u))); d == 0 || d > 16 {
			t.Fatalf("node %d degree %d, want 1..16", u, d)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	m := randomMatrix(2, 100, 4)
	cfg := Config{M: 6, EFConstruction: 40, Metric: vec.L2}
	if a, b := adjacencyHash(Build(m, cfg).Bottom()), adjacencyHash(Build(m, cfg).Bottom()); a != b {
		t.Fatalf("same input, different graphs: %#x vs %#x", a, b)
	}
}

// TestSearchRecall checks the built graph, searched from its medoid entry
// as the serving layer searches it, finds in-distribution neighbours.
func TestSearchRecall(t *testing.T) {
	m := randomMatrix(3, 1000, 12)
	s := graph.NewSearcher(Build(m, Config{M: 12, EFConstruction: 120, Metric: vec.L2}).Bottom())
	queries := randomMatrix(4, 50, 12)
	gt := bruteforce.AllKNN(m, queries, vec.L2, 10)
	var sum float64
	for qi := 0; qi < queries.Rows(); qi++ {
		res, st := s.Search(queries.Row(qi), 10, 100)
		if st.NDC == 0 {
			t.Fatal("NDC not counted")
		}
		sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
	}
	if avg := sum / 50; avg < 0.9 {
		t.Fatalf("in-distribution recall@10 = %.3f, want >= 0.9", avg)
	}
}

func TestSearchEmptyAndTiny(t *testing.T) {
	empty := Build(vec.NewMatrix(0, 3), Config{M: 4, EFConstruction: 8, Metric: vec.L2}).Bottom()
	if res, _ := graph.NewSearcher(empty).Search([]float32{0, 0, 0}, 3, 5); res != nil {
		t.Fatal("empty index should return nil")
	}
	one := Build(vec.MatrixFromRows([][]float32{{1, 2, 3}}), Config{M: 4, EFConstruction: 8, Metric: vec.L2}).Bottom()
	res, _ := graph.NewSearcher(one).Search([]float32{1, 2, 3}, 3, 5)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("single-point search = %v", res)
	}
}

func TestBottomExport(t *testing.T) {
	m := randomMatrix(5, 300, 8)
	g := Build(m, Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	if g.Len() != 300 {
		t.Fatalf("bottom graph len %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("bottom graph invalid: %v", err)
	}
	if med := g.Medoid(); g.EntryPoint != med {
		t.Fatalf("entry %d, medoid %d", g.EntryPoint, med)
	}
	queries := randomMatrix(6, 20, 8)
	gt := bruteforce.AllKNN(m, queries, vec.L2, 5)
	s := graph.NewSearcher(g)
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
	g := Build(m.Slice(0, 150).Clone(), Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	// Insert the held-out 50 points.
	s := graph.NewSearcher(g)
	for i := 150; i < 200; i++ {
		id := InsertIntoGraphWith(g, s, m.Row(i), 8, 60)
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
	s := graph.NewSearcher(g)
	id := InsertIntoGraphWith(g, s, []float32{1, 1}, 4, 8)
	if id != 0 || g.EntryPoint != 0 || g.Len() != 1 {
		t.Fatal("first insert should become the entry point")
	}
	id2 := InsertIntoGraphWith(g, s, []float32{2, 2}, 4, 8)
	if id2 != 1 || !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Fatal("second insert should link both ways")
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
	cfg := Config{M: 16, EFConstruction: 100, Metric: vec.Cosine}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d.Base, cfg)
	}
}

package hnsw

import (
	"math/rand"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// TestInsertSearcherReuse checks that growing a graph through one reused
// searcher (the allocation-free bulk-insert path) produces exactly the
// adjacency that per-insert fresh searchers produce: reuse only recycles
// scratch, it must not leak state between inserts.
func TestInsertSearcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim = 300, 8
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()*2 - 1
		}
	}

	fresh := graph.New(vec.NewMatrix(0, dim), vec.L2)
	for _, v := range rows {
		InsertIntoGraphWith(fresh, graph.NewSearcher(fresh), v, 8, 50)
	}

	reused := graph.New(vec.NewMatrix(0, dim), vec.L2)
	s := graph.NewSearcher(reused)
	for _, v := range rows {
		InsertIntoGraphWith(reused, s, v, 8, 50)
	}

	if fresh.Len() != reused.Len() {
		t.Fatalf("sizes differ: %d vs %d", fresh.Len(), reused.Len())
	}
	for u := 0; u < fresh.Len(); u++ {
		a := fresh.BaseNeighbors(uint32(u))
		b := reused.BaseNeighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree: %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d edge %d: %d vs %d", u, i, a[i], b[i])
			}
		}
	}
	if err := reused.Validate(); err != nil {
		t.Fatal(err)
	}
}

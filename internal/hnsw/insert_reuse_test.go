package hnsw

import (
	"math/rand"
	"slices"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// TestInsertSearcherReuse checks that growing a graph through one reused
// searcher, or through one Inserter (the allocation-light bulk-insert
// path), produces exactly the adjacency that per-insert fresh searchers
// produce: reuse only recycles scratch, it must not leak state between
// inserts.
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

	inserted := graph.New(vec.NewMatrix(0, dim), vec.L2)
	in := NewInserter(graph.NewSearcher(inserted))
	for _, v := range rows {
		in.Insert(inserted, v, 8, 50)
	}

	for _, other := range []*graph.Graph{reused, inserted} {
		if fresh.Len() != other.Len() {
			t.Fatalf("sizes differ: %d vs %d", fresh.Len(), other.Len())
		}
		for u := 0; u < fresh.Len(); u++ {
			a := fresh.BaseNeighbors(uint32(u))
			b := other.BaseNeighbors(uint32(u))
			if !slices.Equal(a, b) {
				t.Fatalf("vertex %d: out-list %v vs %v", u, a, b)
			}
		}
		if err := other.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

package core_test

import (
	"fmt"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// ExampleComputeEH mirrors the paper's Figure 6(b) walkthrough: a directed
// cycle over a query's four nearest neighbors, and the hardness of
// escaping from each to each.
func ExampleComputeEH() {
	// Points on a line at 0, 1, 2, 3; query just left of 0, so NN rank
	// order is vertex id order.
	m := vec.MatrixFromRows([][]float32{{0}, {1}, {2}, {3}})
	g := graph.New(m, vec.L2)
	g.AddBaseEdge(0, 1)
	g.AddBaseEdge(1, 2)
	g.AddBaseEdge(2, 3)
	g.AddBaseEdge(3, 0)

	eh := core.ComputeEH(g, []uint32{0, 1, 2, 3}, 4)
	fmt.Println("EH(NN1->NN2):", eh.At(0, 1)) // direct edge: both present at rank 2
	fmt.Println("EH(NN2->NN1):", eh.At(1, 0)) // must detour 1->2->3->0: rank 4
	// Output:
	// EH(NN1->NN2): 2
	// EH(NN2->NN1): 4
}

// ExampleNGFix repairs a disconnected neighborhood: two halves of a
// query's NN set with no edges between them become mutually δ-reachable
// after the fix, using near-MST many edges.
func ExampleNGFix() {
	m := vec.MatrixFromRows([][]float32{{0}, {1}, {2}, {3}, {4}, {5}})
	g := graph.New(m, vec.L2)
	// Edges only inside {0,1,2} and inside {3,4,5}.
	for _, e := range [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {3, 4}, {4, 3}, {4, 5}, {5, 4}} {
		g.AddBaseEdge(e[0], e[1])
	}
	nn := []uint32{0, 1, 2, 3, 4, 5}
	st := core.NGFix(g, nn, core.NGFixParams{K: 6, KMax: 6, LEx: 8})
	fmt.Println("edges added:", st.EdgesAdded)
	fmt.Println("fully reachable:", st.FullyReachable)
	// The two islands are bridged with a single pair of directed edges
	// between the closest cross-island points (2 and 3).
	fmt.Println("bridge exists:", g.HasEdge(2, 3) && g.HasEdge(3, 2))
	// Output:
	// edges added: 2
	// fully reachable: true
	// bridge exists: true
}

package core

import (
	"math/rand"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// referenceEH computes Escape Hardness directly from Definition 5.1 /
// Theorem 2: EH(i→j) is the smallest m such that nn[j] is reachable from
// nn[i] inside the subgraph induced by the first m neighbors. It is
// O(kmax · k² · E) — fine as a test oracle, hopeless in production, which
// is exactly why Algorithm 2 exists.
func referenceEH(g *graph.Graph, nn []uint32, k int) [][]uint16 {
	kmax := len(nn)
	out := make([][]uint16, k)
	for i := range out {
		out[i] = make([]uint16, k)
		for j := range out[i] {
			if i != j {
				out[i][j] = InfEH
			}
		}
	}
	for m := 1; m <= kmax; m++ {
		sg := graph.InducedSubgraph(g, nn[:m])
		// BFS from every i < min(m,k).
		for i := 0; i < k && i < m; i++ {
			seen := make([]bool, m)
			stack := []int{i}
			seen[i] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range sg.Adj[u] {
					if !seen[v] {
						seen[v] = true
						stack = append(stack, v)
					}
				}
			}
			for j := 0; j < k && j < m; j++ {
				if i != j && seen[j] && out[i][j] == InfEH {
					out[i][j] = uint16(m)
				}
			}
		}
	}
	return out
}

// Property: Algorithm 2 equals the definitional oracle on random graphs,
// including graphs with extra edges and varying density, and on
// neighbourhoods past 64 points, whose bit rows span several words —
// through ComputeEH and through one scratch reused across trials.
func TestComputeEHMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s fixScratch
	for trial := 0; trial < 52; trial++ {
		n := 8 + rng.Intn(16)
		p := 0.05 + rng.Float64()*0.25
		if trial >= 40 {
			n = 65 + rng.Intn(75) // multi-word rows
			p = (1 + rng.Float64()*3) / float64(n)
		}
		dim := 2 + rng.Intn(3)
		m := vec.NewMatrix(n, dim)
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				m.Row(i)[j] = float32(rng.NormFloat64())
			}
		}
		g := graph.New(m, vec.L2)
		for u := uint32(0); u < uint32(n); u++ {
			for v := uint32(0); v < uint32(n); v++ {
				if u != v && rng.Float64() < p {
					if rng.Float64() < 0.7 {
						g.AddBaseEdge(u, v)
					} else {
						g.AddExtraEdge(u, v, uint16(rng.Intn(100)))
					}
				}
			}
		}
		// NN order: a random permutation (any ranking is a valid query).
		nn := make([]uint32, n)
		for i, x := range rng.Perm(n) {
			nn[i] = uint32(x)
		}
		k := 2 + rng.Intn(n-2)
		want := referenceEH(g, nn, k)
		for _, got := range []*EHResult{ComputeEH(g, nn, k), s.computeEH(g, nn, k)} {
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if got.At(i, j) != want[i][j] {
						t.Fatalf("trial %d (n=%d k=%d p=%.2f): EH(%d,%d) = %d, reference %d",
							trial, n, k, p, i, j, got.At(i, j), want[i][j])
					}
				}
			}
		}
	}
}

package graph

// Subgraph is the k-Neighboring Graph G_k(q) of Definition 4.1: the
// subgraph of a graph index induced by the k nearest neighbors of a query.
// Vertices are re-indexed 0..k-1 in ascending NN-rank order (local index i
// is the (i+1)-th NN of the query), which is exactly the ordering the
// Escape Hardness computation consumes.
type Subgraph struct {
	// IDs maps local index → graph vertex id, in ascending NN rank.
	IDs []uint32
	// Adj holds local out-edges: Adj[i] lists local indices j with an edge
	// IDs[i] → IDs[j] in the underlying index.
	Adj [][]int
}

// InducedSubgraph extracts G_k(q) given the query's NN ids in ascending
// rank order. Both base and extra edges of g are included; edges to
// vertices outside the NN set are dropped, matching the definition.
func InducedSubgraph(g *Graph, nnIDs []uint32) *Subgraph {
	local := make(map[uint32]int, len(nnIDs))
	for i, id := range nnIDs {
		local[id] = i
	}
	sg := &Subgraph{IDs: append([]uint32(nil), nnIDs...), Adj: make([][]int, len(nnIDs))}
	for i, id := range nnIDs {
		for _, v := range g.adj[id] {
			if j, ok := local[v]; ok {
				sg.Adj[i] = append(sg.Adj[i], j)
			}
		}
	}
	return sg
}

// ReachableFrom returns the number of vertices reachable from local vertex
// start (including itself) by directed BFS inside the subgraph.
func (sg *Subgraph) ReachableFrom(start int) int {
	seen := make([]bool, len(sg.IDs))
	queue := []int{start}
	seen[start] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range sg.Adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count
}

// AvgReachable returns the mean, over all start vertices, of the number of
// vertices reachable from that start. The paper uses this as the
// connectivity score of G_k(q) (Figure 4): a fully strongly-connected
// subgraph scores k, isolated points drag the average toward 1.
func (sg *Subgraph) AvgReachable() float64 {
	if len(sg.IDs) == 0 {
		return 0
	}
	total := 0
	for i := range sg.IDs {
		total += sg.ReachableFrom(i)
	}
	return float64(total) / float64(len(sg.IDs))
}

// EdgeCount returns the number of directed edges in the subgraph.
func (sg *Subgraph) EdgeCount() int {
	n := 0
	for _, a := range sg.Adj {
		n += len(a)
	}
	return n
}

// StronglyConnected reports whether every vertex reaches every other.
func (sg *Subgraph) StronglyConnected() bool {
	k := len(sg.IDs)
	for i := 0; i < k; i++ {
		if sg.ReachableFrom(i) != k {
			return false
		}
	}
	return true
}

// Package graph provides the shared substrate for every graph index in
// this repository: adjacency storage holding each vertex's out-edges as
// one id list, base edges first and then the extra edges added by
// NGFix/RFix, with the 16-bit Escape Hardness tag the paper stores for
// pruning kept beside each extra edge, the greedy beam search of
// Algorithm 1 with exact NDC accounting, neighbor-selection (pruning)
// rules, brute-force kNN-graph construction, and the G_k(q) neighborhood
// subgraph analysis used by the Escape Hardness machinery.
package graph

import (
	"fmt"
	"math"

	"ngfix/internal/bitset"
	"ngfix/internal/vec"
)

// InfEH is the Escape Hardness tag for edges that must never be pruned
// (RFix navigation edges). The paper stores EH in 16 bits per extra edge.
const InfEH uint16 = math.MaxUint16

// ExtraEdge is an NGFix/RFix-added out-edge tagged with the Escape
// Hardness recorded when it was added; pruning prefers to drop low-EH
// edges first (they were the easiest to do without). It is the form the
// op log and the snapshot codec carry; the graph stores ids and tags in
// separate columns.
type ExtraEdge struct {
	To uint32
	EH uint16
}

// ExtraUpdate is a full replacement of one vertex's extra out-edges. It is
// the physical unit the serving layer journals after a fix batch: replaying
// SetExtraNeighbors(U, Edges) reproduces additions, EH raises, and budget
// evictions exactly, regardless of the graph's prior extra adjacency.
type ExtraUpdate struct {
	U     uint32
	Edges []ExtraEdge
}

// Graph is a directed graph index over the rows of a vector matrix.
// Out-edges are split into a base segment (built by HNSW/NSG/...) and an
// extra segment (added by the fixing algorithms); searches traverse both.
//
// Concurrent readers are safe as long as no writer is active; all
// construction and fixing in this repository is single-writer.
type Graph struct {
	Vectors *vec.Matrix
	Metric  vec.Metric

	// adj[u] is u's whole out-list, the one contiguous id range a search
	// hop reads: base targets, then extra targets. eh[u] holds the EH tags
	// of the last len(eh[u]) entries of adj[u], which are u's extra edges,
	// so u has len(adj[u])-len(eh[u]) base edges. Each id is stored once,
	// and every mutator edits the two columns in place together.
	adj     [][]uint32
	eh      [][]uint16
	deleted []bool
	nDel    int

	// norms caches the Euclidean norm of every row when Metric is Cosine,
	// so searches hoist the row-norm dot product out of every distance
	// evaluation (vec.QueryDistancer). Vectors are only ever appended
	// (AppendVertex) after construction, never rewritten in place, so the
	// cache cannot go stale. Nil for other metrics.
	norms []float32

	// dirty, while non-nil, marks the vertices whose extra adjacency
	// changed. See TrackExtraMutations.
	dirty *bitset.Set

	// EntryPoint is the default search entry. The fixing algorithms pin it
	// to the medoid (nearest base point to the centroid), per §5.4.
	EntryPoint uint32
}

// New returns an empty-edged graph over the given vectors.
func New(vectors *vec.Matrix, metric vec.Metric) *Graph {
	n := vectors.Rows()
	g := &Graph{
		Vectors: vectors,
		Metric:  metric,
		adj:     make([][]uint32, n),
		eh:      make([][]uint16, n),
		deleted: make([]bool, n),
	}
	if metric == vec.Cosine {
		g.norms = vec.RowNorms(vectors)
	}
	return g
}

// RowNorms returns the cached per-row norms (nil unless Metric is Cosine).
func (g *Graph) RowNorms() []float32 { return g.norms }

// Len returns the number of vertices (including deleted ones).
func (g *Graph) Len() int { return len(g.adj) }

// Live returns the number of non-deleted vertices.
func (g *Graph) Live() int { return len(g.adj) - g.nDel }

// Dim returns the vector dimensionality.
func (g *Graph) Dim() int { return g.Vectors.Dim() }

// Distance evaluates the index metric between a query and vertex id.
func (g *Graph) Distance(q []float32, id uint32) float32 {
	return g.Metric.Distance(q, g.Vectors.Row(int(id)))
}

// baseLen returns how many of u's out-edges are base edges.
func (g *Graph) baseLen(u uint32) int { return len(g.adj[u]) - len(g.eh[u]) }

// BaseNeighbors returns the base out-edges of u (shared storage, capped
// so that appending to it never writes into the graph).
func (g *Graph) BaseNeighbors(u uint32) []uint32 {
	nb := g.baseLen(u)
	return g.adj[u][:nb:nb]
}

// Neighbors returns every out-edge target of u, base then extra, as the
// one range a search hop reads (shared storage; do not modify).
func (g *Graph) Neighbors(u uint32) []uint32 { return g.adj[u] }

// ExtraTags returns the EH tags of u's extra out-edges, which are the last
// len(ExtraTags(u)) entries of Neighbors(u), in the same order (shared
// storage; do not modify).
func (g *Graph) ExtraTags(u uint32) []uint16 { return g.eh[u] }

// ExtraNeighbors returns a fresh copy of u's extra out-edges with their
// tags, or nil when u has none.
func (g *Graph) ExtraNeighbors(u uint32) []ExtraEdge {
	tags := g.eh[u]
	if len(tags) == 0 {
		return nil
	}
	ids := g.adj[u][g.baseLen(u):]
	out := make([]ExtraEdge, len(tags))
	for i, t := range tags {
		out[i] = ExtraEdge{To: ids[i], EH: t}
	}
	return out
}

// SetBaseNeighbors replaces the base out-edges of u. It may keep nbrs as
// the graph's storage.
func (g *Graph) SetBaseNeighbors(u uint32, nbrs []uint32) {
	g.adj[u] = append(nbrs[:len(nbrs):len(nbrs)], g.adj[u][g.baseLen(u):]...)
}

// AddBaseEdge appends a base out-edge u→v if not already present.
// It reports whether the edge was added.
func (g *Graph) AddBaseEdge(u, v uint32) bool {
	if u == v {
		return false
	}
	for _, w := range g.BaseNeighbors(u) {
		if w == v {
			return false
		}
	}
	nb := g.baseLen(u)
	a := append(g.adj[u], 0)
	copy(a[nb+1:], a[nb:])
	a[nb] = v
	g.adj[u] = a
	return true
}

// TruncateBaseNeighbors keeps the first n of u's base out-edges, in
// place: the extra edges move down behind them with their tags, and the
// list keeps its capacity, so nothing is allocated now or by the next
// AddBaseEdge. A caller that keeps another subset first writes it into
// the prefix of BaseNeighbors(u), the graph's storage.
func (g *Graph) TruncateBaseNeighbors(u uint32, n int) {
	a, nb := g.adj[u], g.baseLen(u)
	g.adj[u] = append(a[:n], a[nb:]...)
}

// HasEdge reports whether u→v exists in either segment.
func (g *Graph) HasEdge(u, v uint32) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// AddExtraEdge appends an extra out-edge u→v with the given EH tag when no
// u→v edge exists yet; when an extra u→v edge exists its EH is raised to
// eh if larger. It reports whether the adjacency changed.
func (g *Graph) AddExtraEdge(u, v uint32, eh uint16) bool {
	if u == v {
		return false
	}
	nb := g.baseLen(u)
	for i, w := range g.adj[u] {
		if w != v {
			continue
		}
		if i < nb || g.eh[u][i-nb] >= eh {
			return false
		}
		g.eh[u][i-nb] = eh
		g.markExtraDirty(u)
		return true
	}
	g.adj[u] = append(g.adj[u], v)
	g.eh[u] = append(g.eh[u], eh)
	g.markExtraDirty(u)
	return true
}

// RemoveExtraEdge deletes the extra edge u→v if present.
func (g *Graph) RemoveExtraEdge(u, v uint32) bool {
	a, nb := g.adj[u], g.baseLen(u)
	for i := nb; i < len(a); i++ {
		if a[i] == v {
			g.adj[u] = append(a[:i], a[i+1:]...)
			g.eh[u] = append(g.eh[u][:i-nb], g.eh[u][i-nb+1:]...)
			g.markExtraDirty(u)
			return true
		}
	}
	return false
}

// SetExtraNeighbors replaces the extra out-edges of u with a copy of edges.
func (g *Graph) SetExtraNeighbors(u uint32, edges []ExtraEdge) {
	a, tags := g.adj[u][:g.baseLen(u)], g.eh[u][:0]
	for _, e := range edges {
		a = append(a, e.To)
		tags = append(tags, e.EH)
	}
	g.adj[u], g.eh[u] = a, tags
	g.markExtraDirty(u)
}

func (g *Graph) markExtraDirty(u uint32) {
	if g.dirty != nil {
		g.dirty.Set(int(u))
	}
}

// TrackExtraMutations starts recording which of the graph's current
// vertices have their extra adjacency mutated (by AddExtraEdge,
// RemoveExtraEdge, or SetExtraNeighbors). The serving layer brackets a fix
// batch with TrackExtraMutations/TakeExtraMutations to journal exactly the
// vertices the batch touched. Tracking is not safe for concurrent writers
// — but neither is any graph mutation.
func (g *Graph) TrackExtraMutations() {
	g.dirty = bitset.New(g.Len())
}

// TakeExtraMutations stops tracking and returns the mutated vertex ids in
// ascending order. It returns nil when tracking was never started or
// nothing changed.
func (g *Graph) TakeExtraMutations() []uint32 {
	if g.dirty == nil {
		return nil
	}
	var ids []uint32
	g.dirty.ForEach(func(u int) bool {
		ids = append(ids, uint32(u))
		return true
	})
	g.dirty = nil
	return ids
}

// ExtraDegree returns the number of extra out-edges of u.
func (g *Graph) ExtraDegree(u uint32) int { return len(g.eh[u]) }

// Degree returns the total out-degree of u.
func (g *Graph) Degree(u uint32) int { return len(g.adj[u]) }

// AvgDegree returns the mean total out-degree over live vertices.
func (g *Graph) AvgDegree() float64 {
	if g.Live() == 0 {
		return 0
	}
	total := 0
	for u := range g.adj {
		if !g.deleted[u] {
			total += g.Degree(uint32(u))
		}
	}
	return float64(total) / float64(g.Live())
}

// EdgeCount returns (base, extra) directed edge totals over all vertices.
func (g *Graph) EdgeCount() (base, extra int) {
	for u := range g.adj {
		base += len(g.adj[u]) - len(g.eh[u])
		extra += len(g.eh[u])
	}
	return base, extra
}

// MarkDeleted lazily deletes u: it stays navigable but is excluded from
// results. It reports whether the state changed.
func (g *Graph) MarkDeleted(u uint32) bool {
	if g.deleted[u] {
		return false
	}
	g.deleted[u] = true
	g.nDel++
	return true
}

// Undelete reverses MarkDeleted.
func (g *Graph) Undelete(u uint32) {
	if g.deleted[u] {
		g.deleted[u] = false
		g.nDel--
	}
}

// IsDeleted reports whether u is marked deleted.
func (g *Graph) IsDeleted(u uint32) bool { return g.deleted[u] }

// DeletedCount returns how many vertices are marked deleted.
func (g *Graph) DeletedCount() int { return g.nDel }

// AppendVertex adds a new vertex with the given vector and no edges,
// returning its id. The vector matrix must be the one the graph owns.
func (g *Graph) AppendVertex(v []float32) uint32 {
	id := g.Vectors.Append(v)
	g.adj = append(g.adj, nil)
	g.eh = append(g.eh, nil)
	g.deleted = append(g.deleted, false)
	if g.Metric == vec.Cosine {
		g.norms = append(g.norms, vec.Norm(g.Vectors.Row(id)))
	}
	return uint32(id)
}

// Medoid returns the live vertex nearest to the centroid of live vectors.
// The fixing algorithms use it as the fixed entry point.
func (g *Graph) Medoid() uint32 {
	n := g.Len()
	if n == 0 {
		panic("graph: medoid of empty graph")
	}
	dim := g.Dim()
	acc := make([]float64, dim)
	live := 0
	for i := 0; i < n; i++ {
		if g.deleted[i] {
			continue
		}
		row := g.Vectors.Row(i)
		for j, v := range row {
			acc[j] += float64(v)
		}
		live++
	}
	if live == 0 {
		panic("graph: all vertices deleted")
	}
	c := make([]float32, dim)
	for j := range acc {
		c[j] = float32(acc[j] / float64(live))
	}
	best := uint32(0)
	bestD := float32(math.Inf(1))
	found := false
	for i := 0; i < n; i++ {
		if g.deleted[i] {
			continue
		}
		d := g.Metric.Distance(c, g.Vectors.Row(i))
		if !found || d < bestD {
			best, bestD, found = uint32(i), d, true
		}
	}
	return best
}

// Validate checks structural invariants (ids in range, no self loops, no
// duplicate out-edges within or across segments) and returns a
// descriptive error for the first violation found.
func (g *Graph) Validate() error {
	n := uint32(g.Len())
	for u, a := range g.adj {
		seen := make(map[uint32]bool, len(a))
		for _, v := range a {
			if v >= n {
				return fmt.Errorf("graph: vertex %d has edge to out-of-range %d", u, v)
			}
			if v == uint32(u) {
				return fmt.Errorf("graph: vertex %d has a self loop", u)
			}
			if seen[v] {
				return fmt.Errorf("graph: vertex %d has duplicate edge to %d", u, v)
			}
			seen[v] = true
		}
	}
	if n > 0 && g.EntryPoint >= n {
		return fmt.Errorf("graph: entry point %d out of range", g.EntryPoint)
	}
	return nil
}

// Clone returns a deep copy of the graph sharing no mutable state with the
// original (vectors are copied too, so maintenance experiments can mutate
// the clone freely).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Vectors:    g.Vectors.Clone(),
		Metric:     g.Metric,
		adj:        make([][]uint32, len(g.adj)),
		eh:         make([][]uint16, len(g.eh)),
		deleted:    append([]bool(nil), g.deleted...),
		nDel:       g.nDel,
		norms:      append([]float32(nil), g.norms...),
		EntryPoint: g.EntryPoint,
	}
	for i := range g.adj {
		c.adj[i] = append([]uint32(nil), g.adj[i]...)
		c.eh[i] = append([]uint16(nil), g.eh[i]...)
	}
	return c
}

// SizeBytes estimates the in-memory index size the way the paper reports
// it: vector payload + 4 bytes per base edge + 6 bytes per extra edge
// (its 4-byte id and its 16-bit EH tag, each stored once) + per-vertex
// bookkeeping.
func (g *Graph) SizeBytes() int64 {
	base, extra := g.EdgeCount()
	var s int64
	s += int64(len(g.Vectors.Data())) * 4
	s += int64(base) * 4
	s += int64(extra) * 6
	s += int64(g.Len()) * 9 // two slice headers' lengths + deleted flag, amortized
	return s
}

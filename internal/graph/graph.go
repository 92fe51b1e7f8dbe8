// Package graph provides the shared substrate for every graph index in
// this repository: adjacency storage that separates base edges from the
// extra edges added by NGFix/RFix (extra edges carry the 16-bit Escape
// Hardness tag the paper stores for pruning), the greedy beam search of
// Algorithm 1 with exact NDC accounting, neighbor-selection (pruning)
// rules, brute-force kNN-graph construction, and the G_k(q) neighborhood
// subgraph analysis used by the Escape Hardness machinery.
package graph

import (
	"fmt"
	"math"
	"sort"

	"ngfix/internal/vec"
)

// InfEH is the Escape Hardness tag for edges that must never be pruned
// (RFix navigation edges). The paper stores EH in 16 bits per extra edge.
const InfEH uint16 = math.MaxUint16

// ExtraEdge is an NGFix/RFix-added out-edge tagged with the Escape
// Hardness recorded when it was added; pruning prefers to drop low-EH
// edges first (they were the easiest to do without).
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

	// adj[u] is u's whole out-list as the one contiguous id range a search
	// hop reads: the nBase[u] base targets, then the targets of extra[u] in
	// the same order. Every mutator below keeps it in step in place, so
	// nothing is rebuilt per insert or per fix batch.
	adj   [][]uint32
	nBase []uint32
	// extra[u] is the extra segment with its EH tags, the form the fixing
	// algorithms, the op log and the snapshot codec read and write.
	extra   [][]ExtraEdge
	deleted []bool
	nDel    int

	// norms caches the Euclidean norm of every row when Metric is Cosine,
	// so searches hoist the row-norm dot product out of every distance
	// evaluation (vec.QueryDistancer). Vectors are only ever appended
	// (AppendVertex) after construction, never rewritten in place, so the
	// cache cannot go stale. Nil for other metrics.
	norms []float32

	// extraDirty, while non-nil, accumulates the ids of vertices whose
	// extra adjacency changed. See TrackExtraMutations.
	extraDirty map[uint32]struct{}

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
		nBase:   make([]uint32, n),
		extra:   make([][]ExtraEdge, n),
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

// BaseNeighbors returns the base out-edges of u (shared storage, capped
// so that appending to it never writes into the graph).
func (g *Graph) BaseNeighbors(u uint32) []uint32 {
	nb := g.nBase[u]
	return g.adj[u][:nb:nb]
}

// Neighbors returns every out-edge target of u, base then extra, as the
// one range a search hop reads (shared storage; do not modify).
func (g *Graph) Neighbors(u uint32) []uint32 { return g.adj[u] }

// ExtraNeighbors returns the extra out-edges of u (shared storage).
func (g *Graph) ExtraNeighbors(u uint32) []ExtraEdge { return g.extra[u] }

// SetBaseNeighbors replaces the base out-edges of u. Like every setter
// here it may keep nbrs as the graph's storage.
func (g *Graph) SetBaseNeighbors(u uint32, nbrs []uint32) {
	a := nbrs[:len(nbrs):len(nbrs)]
	for _, e := range g.extra[u] {
		a = append(a, e.To)
	}
	g.adj[u] = a
	g.nBase[u] = uint32(len(nbrs))
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
	nb := g.nBase[u]
	a := append(g.adj[u], 0)
	copy(a[nb+1:], a[nb:])
	a[nb] = v
	g.adj[u] = a
	g.nBase[u]++
	return true
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
	for _, w := range g.BaseNeighbors(u) {
		if w == v {
			return false
		}
	}
	for i := range g.extra[u] {
		if g.extra[u][i].To == v {
			if g.extra[u][i].EH < eh {
				g.extra[u][i].EH = eh
				g.markExtraDirty(u)
				return true
			}
			return false
		}
	}
	g.extra[u] = append(g.extra[u], ExtraEdge{To: v, EH: eh})
	g.adj[u] = append(g.adj[u], v)
	g.markExtraDirty(u)
	return true
}

// RemoveExtraEdge deletes the extra edge u→v if present.
func (g *Graph) RemoveExtraEdge(u, v uint32) bool {
	for i, e := range g.extra[u] {
		if e.To == v {
			g.extra[u] = append(g.extra[u][:i], g.extra[u][i+1:]...)
			j := int(g.nBase[u]) + i
			g.adj[u] = append(g.adj[u][:j], g.adj[u][j+1:]...)
			g.markExtraDirty(u)
			return true
		}
	}
	return false
}

// SetExtraNeighbors replaces the extra out-edges of u.
func (g *Graph) SetExtraNeighbors(u uint32, edges []ExtraEdge) {
	g.extra[u] = edges
	a := g.adj[u][:g.nBase[u]]
	for _, e := range edges {
		a = append(a, e.To)
	}
	g.adj[u] = a
	g.markExtraDirty(u)
}

func (g *Graph) markExtraDirty(u uint32) {
	if g.extraDirty != nil {
		g.extraDirty[u] = struct{}{}
	}
}

// TrackExtraMutations starts recording which vertices have their extra
// adjacency mutated (by AddExtraEdge, RemoveExtraEdge, or
// SetExtraNeighbors). The serving layer brackets a fix batch with
// TrackExtraMutations/TakeExtraMutations to journal exactly the vertices
// the batch touched. Tracking is not safe for concurrent writers — but
// neither is any graph mutation.
func (g *Graph) TrackExtraMutations() {
	g.extraDirty = make(map[uint32]struct{})
}

// TakeExtraMutations stops tracking and returns the mutated vertex ids in
// ascending order. It returns nil when tracking was never started.
func (g *Graph) TakeExtraMutations() []uint32 {
	if g.extraDirty == nil {
		return nil
	}
	ids := make([]uint32, 0, len(g.extraDirty))
	for u := range g.extraDirty {
		ids = append(ids, u)
	}
	g.extraDirty = nil
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ExtraDegree returns the number of extra out-edges of u.
func (g *Graph) ExtraDegree(u uint32) int { return len(g.extra[u]) }

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
		base += int(g.nBase[u])
		extra += len(g.extra[u])
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
	g.nBase = append(g.nBase, 0)
	g.extra = append(g.extra, nil)
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
// duplicate out-edges within a segment, no base/extra overlap, the search
// range in step with both segments) and returns a descriptive error for
// the first violation found.
func (g *Graph) Validate() error {
	n := uint32(g.Len())
	for u := range g.adj {
		uu := uint32(u)
		if int(g.nBase[u])+len(g.extra[u]) != len(g.adj[u]) {
			return fmt.Errorf("graph: vertex %d search range holds %d ids for %d base + %d extra edges", u, len(g.adj[u]), g.nBase[u], len(g.extra[u]))
		}
		for i, e := range g.extra[u] {
			if g.adj[u][int(g.nBase[u])+i] != e.To {
				return fmt.Errorf("graph: vertex %d search range disagrees with extra edge %d", u, i)
			}
		}
		seen := make(map[uint32]bool, g.Degree(uu))
		for _, v := range g.BaseNeighbors(uu) {
			if v >= n {
				return fmt.Errorf("graph: vertex %d has base edge to out-of-range %d", u, v)
			}
			if v == uint32(u) {
				return fmt.Errorf("graph: vertex %d has a self loop", u)
			}
			if seen[v] {
				return fmt.Errorf("graph: vertex %d has duplicate edge to %d", u, v)
			}
			seen[v] = true
		}
		for _, e := range g.extra[u] {
			if e.To >= n {
				return fmt.Errorf("graph: vertex %d has extra edge to out-of-range %d", u, e.To)
			}
			if e.To == uint32(u) {
				return fmt.Errorf("graph: vertex %d has an extra self loop", u)
			}
			if seen[e.To] {
				return fmt.Errorf("graph: vertex %d duplicates edge to %d across segments", u, e.To)
			}
			seen[e.To] = true
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
		nBase:      append([]uint32(nil), g.nBase...),
		extra:      make([][]ExtraEdge, len(g.extra)),
		deleted:    append([]bool(nil), g.deleted...),
		nDel:       g.nDel,
		norms:      append([]float32(nil), g.norms...),
		EntryPoint: g.EntryPoint,
	}
	for i := range g.adj {
		c.adj[i] = append([]uint32(nil), g.adj[i]...)
		c.extra[i] = append([]ExtraEdge(nil), g.extra[i]...)
	}
	return c
}

// SizeBytes estimates the in-memory index size the way the paper reports
// it: vector payload + 4 bytes per base edge + 6 bytes per extra edge
// (4-byte id + 16-bit EH tag) + per-vertex bookkeeping.
func (g *Graph) SizeBytes() int64 {
	base, extra := g.EdgeCount()
	var s int64
	s += int64(len(g.Vectors.Data())) * 4
	s += int64(base) * 4
	s += int64(extra) * 6
	s += int64(g.Len()) * 9 // two slice headers' lengths + deleted flag, amortized
	return s
}

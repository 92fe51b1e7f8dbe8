package core

import (
	"fmt"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// PartialRebuild implements §5.5.1's refresh step after a batch of
// insertions: for every vertex, randomly drop removeFrac of its extra
// out-edges (base edges are never touched) and reset the Escape Hardness
// tags of the survivors to zero — the old hardness estimates no longer
// describe the grown graph — then re-fix with the supplied (typically
// sampled) historical queries. It returns the fixing report.
func (ix *Index) PartialRebuild(removeFrac float64, queries *vec.Matrix, truth [][]bruteforce.Neighbor) FixReport {
	n := ix.G.Len()
	for u := 0; u < n; u++ {
		edges := ix.G.ExtraNeighbors(uint32(u))
		if len(edges) == 0 {
			continue
		}
		kept := edges[:0]
		for _, e := range edges {
			if ix.rng.Float64() < removeFrac {
				continue
			}
			e.EH = 0
			kept = append(kept, e)
		}
		ix.G.SetExtraNeighbors(uint32(u), kept)
	}
	ix.G.EntryPoint = ix.G.Medoid()
	return ix.Fix(queries, truth)
}

// Delete lazily removes id: it stays navigable but is excluded from
// results. Returns false if it was already deleted.
func (ix *Index) Delete(id uint32) bool { return ix.G.MarkDeleted(id) }

// ApplyExtraUpdates replays journaled extra-adjacency replacements (the
// op log's fix-batch records) onto the graph. The graph copies the edges,
// so the caller may keep the updates.
func (ix *Index) ApplyExtraUpdates(updates []graph.ExtraUpdate) error {
	n := uint32(ix.G.Len())
	for _, up := range updates {
		if up.U >= n {
			return fmt.Errorf("core: extra update for out-of-range vertex %d (graph has %d)", up.U, n)
		}
		for _, e := range up.Edges {
			if e.To >= n {
				return fmt.Errorf("core: extra update %d→%d out of range (graph has %d)", up.U, e.To, n)
			}
		}
		ix.G.SetExtraNeighbors(up.U, up.Edges)
	}
	return nil
}

// DeletedFraction returns the share of vertices currently tombstoned.
func (ix *Index) DeletedFraction() float64 {
	if ix.G.Len() == 0 {
		return 0
	}
	return float64(ix.G.DeletedCount()) / float64(ix.G.Len())
}

// PurgeReport describes a PurgeAndRepair pass.
type PurgeReport struct {
	Purged       int
	EdgesRemoved int
	RepairEdges  int
	Elapsed      time.Duration
}

// PurgeAndRepair implements §5.5.2's full deletion: once lazy tombstones
// accumulate, remove every deleted vertex's in- and out-edges with one
// graph traversal, then repair each hole by treating the deleted point as
// a query — compute its (approximate) nearest live neighbors with a wide
// search and run NGFix on that neighborhood, restoring the connectivity
// the vertex used to provide.
//
// k and efTruth parameterize the repair neighborhoods (the paper uses a
// search list of 800 at 10M scale; scale efTruth to your dataset).
func (ix *Index) PurgeAndRepair(k, efTruth int) PurgeReport {
	start := time.Now()
	g := ix.G
	var rep PurgeReport

	// Snapshot the tombstoned ids and their neighbor lists *before*
	// unlinking, so the repair queries still have a connected graph to
	// search.
	var deleted []uint32
	for u := 0; u < g.Len(); u++ {
		if g.IsDeleted(uint32(u)) && !ix.purged[uint32(u)] {
			deleted = append(deleted, uint32(u))
		}
	}
	if len(deleted) == 0 {
		return rep
	}
	if k <= 0 {
		k = ix.opts.Rounds[0].K
	}
	if efTruth < k {
		efTruth = 4 * k
	}
	kmax := 2 * k

	s := graph.NewSearcher(g)
	repairNN := make([][]uint32, len(deleted))
	for i, id := range deleted {
		res, _ := s.SearchFrom(g.Vectors.Row(int(id)), kmax, efTruth, g.EntryPoint)
		repairNN[i] = graph.IDs(res) // live points only: search skips tombstones
	}

	// One full traversal removing edges into and out of deleted vertices.
	for u := 0; u < g.Len(); u++ {
		uu := uint32(u)
		if g.IsDeleted(uu) {
			rep.EdgesRemoved += g.Degree(uu)
			g.SetBaseNeighbors(uu, nil)
			g.SetExtraNeighbors(uu, nil)
			continue
		}
		base := g.BaseNeighbors(uu)
		nb := base[:0]
		for _, v := range base {
			if !g.IsDeleted(v) {
				nb = append(nb, v)
			} else {
				rep.EdgesRemoved++
			}
		}
		g.SetBaseNeighbors(uu, nb)
		extra := g.ExtraNeighbors(uu)
		ne := extra[:0]
		for _, e := range extra {
			if !g.IsDeleted(e.To) {
				ne = append(ne, e)
			} else {
				rep.EdgesRemoved++
			}
		}
		g.SetExtraNeighbors(uu, ne)
	}
	rep.Purged = len(deleted)
	for _, id := range deleted {
		ix.purged[id] = true
	}
	if g.IsDeleted(g.EntryPoint) {
		g.EntryPoint = g.Medoid()
	}

	// Repair: NGFix each hole.
	for _, nn := range repairNN {
		if len(nn) < 2 {
			continue
		}
		st := ix.fix.ngfix(g, nn, NGFixParams{K: k, KMax: kmax, LEx: ix.opts.LEx, Prune: ix.opts.Prune, Rng: ix.rng})
		rep.RepairEdges += st.EdgesAdded
	}
	ix.setSearcher(graph.NewSearcher(g))
	rep.Elapsed = time.Since(start)
	return rep
}

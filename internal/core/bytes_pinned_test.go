package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// fixFixture is TestFixMatchesReference's seeded fixture: a base graph
// over 1 500 clustered rows, 200 history queries and their exact top-64
// truth, with the medoid as entry. The base adjacency is committed
// (testdata/fix-fixture-base.adj), not built, so the hashes pinned on it
// hold whatever the builder does. It is the bottom layer of the
// hierarchical HNSW build at M 4, efConstruction 32, seed 6, which was
// the same on both kernel arms. Its format is little-endian uint32s: the
// row count, then each row's degree and out-list.
func fixFixture() (*graph.Graph, *vec.Matrix, [][]bruteforce.Neighbor) {
	d := dataset.Generate(dataset.Config{
		Name: "fix-reference", N: 1500, NHist: 200, NTest: 1,
		Dim: 16, Clusters: 12, Metric: vec.L2,
		GapMagnitude: 2.5, ClusterStd: 0.2, QueryStdScale: 2,
		Seed: 5,
	})
	raw, err := os.ReadFile("testdata/fix-fixture-base.adj")
	if err != nil {
		panic(err)
	}
	next := func() uint32 {
		v := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		return v
	}
	base := graph.New(d.Base, vec.L2)
	if n := next(); int(n) != base.Len() {
		panic(fmt.Sprintf("fix fixture: adjacency for %d rows, dataset has %d", n, base.Len()))
	}
	for u := range base.Len() {
		nb := make([]uint32, next())
		for i := range nb {
			nb[i] = next()
		}
		base.SetBaseNeighbors(uint32(u), nb)
	}
	base.EntryPoint = base.Medoid()
	return base, d.History, ExactTruth(d.Base, d.History, vec.L2, 64)
}

// tightRounds, at LEx 2, make every prune mode evict; with RFixL 2 the
// last round's two-wide reachability test fails often enough that RFix
// adds InfEH edges.
var tightRounds = []Round{{K: 30, Delta: 12}, {K: 10, Delta: 6}, {K: 2, RFix: true}}

// checkPinned compares a hash against the one pinned for the active
// kernel arm (the arms round differently, so the fixture is built per
// arm); an arm with no pin is skipped.
func checkPinned(t *testing.T, what string, got uint64, pinned map[string]uint64) {
	t.Helper()
	want, ok := pinned[vec.KernelName()]
	if !ok {
		t.Logf("no pinned %s hash for kernel %s (got %#x)", what, vec.KernelName(), got)
		return
	}
	if got != want {
		t.Errorf("%s: %s hash %#x, pinned %#x", vec.KernelName(), what, got, want)
	}
}

// TestGraphBytesPinned pins the bytes Graph.Write produces for fixed
// graphs: the fixture fixed at LEx 2 under each prune mode (base edges,
// evicted and re-tagged NGFix edges, RFix InfEH edges), every 97th row
// tombstoned, and for PruneEH also after a purge and repair. A change to
// how the graph stores or edits its edges that alters one byte fails here.
func TestGraphBytesPinned(t *testing.T) {
	defer vec.SetSIMD(true)
	pinned := map[string]uint64{"avx2": 0xe1f3f044ce67b8b8, "scalar": 0x8d82b71b5f0c02f4}
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		base, hist, truth := fixFixture()
		h := fnv.New64a()
		for _, prune := range []PruneMode{PruneEH, PruneRandom, PruneMRNG} {
			ix := New(base.Clone(), Options{Rounds: tightRounds, LEx: 2, Prune: prune, RFixL: 2, Seed: 3})
			rep := ix.Fix(hist, truth)
			if rep.NGFixPruned == 0 || rep.RFixEdges == 0 {
				t.Fatalf("prune %d: fixture too easy: %+v", prune, rep)
			}
			for u := 0; u < ix.G.Len(); u += 97 {
				ix.Delete(uint32(u))
			}
			if err := ix.G.Write(h); err != nil {
				t.Fatal(err)
			}
			if prune == PruneEH {
				if rep := ix.PurgeAndRepair(10, 60); rep.Purged == 0 || rep.RepairEdges == 0 {
					t.Fatalf("purge did nothing: %+v", rep)
				}
				if err := ix.G.Write(h); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkPinned(t, "graph bytes", h.Sum64(), pinned)
	}
}

// TestFixJournalPinned pins the extra-adjacency replacements one online
// fix batch journals through LogFixEdges: the vertices it touched, in
// order, and each one's extra edges with their tags.
func TestFixJournalPinned(t *testing.T) {
	defer vec.SetSIMD(true)
	const hash = 0x1c003b38396eca2a
	pinned := map[string]uint64{"avx2": hash, "scalar": hash}
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		base, hist, _ := fixFixture()
		wal := &recordingWAL{}
		ix := New(base.Clone(), Options{Rounds: tightRounds, LEx: 2, RFixL: 2, Seed: 3})
		o := NewOnlineFixer(ix, OnlineConfig{BatchSize: hist.Rows(), WAL: wal})
		for qi := 0; qi < hist.Rows(); qi++ {
			o.Search(hist.Row(qi), 10, 40)
		}
		rep, err := o.FixPendingChecked()
		if err != nil {
			t.Fatal(err)
		}
		if rep.NGFixPruned == 0 || rep.RFixEdges == 0 || len(wal.fixes) != 1 {
			t.Fatalf("batch journaled %d records: %+v", len(wal.fixes), rep)
		}
		h := fnv.New64a()
		var b [4]byte
		put := func(v uint32) {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
		for _, up := range wal.fixes[0] {
			put(up.U)
			put(uint32(len(up.Edges)))
			for _, e := range up.Edges {
				put(e.To)
				put(uint32(e.EH))
			}
		}
		checkPinned(t, "fix journal", h.Sum64(), pinned)
	}
}

// TestInsertAdjacencyPinned pins the base adjacency online insertion
// builds: 600 Index.Insert calls at the default InsertM/InsertEF onto the
// fixed fixture — its 200 history queries, then 400 rows drawn from a
// second seed of the same recipe. Recovery, replicas and reshard children
// replay inserts by re-running them, so an edge that moves here is a WAL
// that replays to a different graph.
func TestInsertAdjacencyPinned(t *testing.T) {
	defer vec.SetSIMD(true)
	const hash = 0x4ff7be528e42e988
	pinned := map[string]uint64{"avx2": hash, "scalar": hash}
	more := dataset.Generate(dataset.Config{
		Name: "insert-pinned", N: 400, NHist: 1, NTest: 1,
		Dim: 16, Clusters: 12, Metric: vec.L2,
		GapMagnitude: 2.5, ClusterStd: 0.2, QueryStdScale: 2,
		Seed: 8,
	})
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		base, hist, _ := fixFixture()
		ix := New(base.Clone(), Options{})
		for _, m := range []*vec.Matrix{hist, more.Base} {
			for i := 0; i < m.Rows(); i++ {
				ix.Insert(m.Row(i))
			}
		}
		h := fnv.New64a()
		var b [4]byte
		put := func(v uint32) {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
		put(ix.G.EntryPoint)
		for u := 0; u < ix.G.Len(); u++ {
			nb := ix.G.BaseNeighbors(uint32(u))
			put(uint32(len(nb)))
			for _, v := range nb {
				put(v)
			}
		}
		checkPinned(t, "insert adjacency", h.Sum64(), pinned)
	}
}

package shard

import (
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

func TestRouterArithmetic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		r := NewRouter(n)
		for g := uint32(0); g < 100; g++ {
			s, l := r.ShardOf(g), r.Local(g)
			if s < 0 || s >= n {
				t.Fatalf("n=%d: shard %d out of range", n, s)
			}
			if back := r.Global(s, l); back != g {
				t.Fatalf("n=%d: global %d → (%d,%d) → %d", n, g, s, l, back)
			}
		}
		if n == 1 {
			// One shard is the identity mapping — the compatibility story.
			if r.ShardOf(41) != 0 || r.Local(41) != 41 || r.Global(0, 41) != 41 {
				t.Fatal("one-shard router is not the identity")
			}
		}
	}
}

func TestPartitionIdentity(t *testing.T) {
	base := vec.NewMatrix(0, 2)
	for i := 0; i < 10; i++ {
		base.Append([]float32{float32(i), 0})
	}
	if parts := Partition(base, 1); parts[0] != base {
		t.Fatal("one-shard partition should return base itself")
	}
	parts := Partition(base, 3)
	r := NewRouter(3)
	total := 0
	for s, p := range parts {
		total += p.Rows()
		for l := 0; l < p.Rows(); l++ {
			g := r.Global(s, uint32(l))
			// Row i of base landed at global id i: partition preserves ids.
			if got := p.Row(l)[0]; got != float32(g) {
				t.Fatalf("shard %d local %d: vector %v, want global id %d", s, l, p.Row(l), g)
			}
		}
	}
	if total != base.Rows() {
		t.Fatalf("partition covers %d rows, want %d", total, base.Rows())
	}
}

// buildGroup builds an n-shard group over d.Base via Partition, plus a
// reference single fixer over the whole base, both with identical build
// parameters.
func buildGroup(t *testing.T, d *dataset.Dataset, n int, cfg core.OnlineConfig) *Group {
	t.Helper()
	parts := Partition(d.Base, n)
	fixers := make([]*core.OnlineFixer, n)
	for s, p := range parts {
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
		fixers[s] = core.NewOnlineFixer(ix, cfg)
	}
	g, err := NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Config{
		Name: "shard", N: 600, NHist: 100, NTest: 40,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 11,
	})
}

func TestGroupInsertDeleteRouting(t *testing.T) {
	d := testDataset(t)
	g := buildGroup(t, d, 3, core.OnlineConfig{BatchSize: 50})
	if g.Len() != d.Base.Rows() {
		t.Fatalf("group len %d, want %d", g.Len(), d.Base.Rows())
	}

	// Round-robin inserts continue the dense id sequence the interleaved
	// partition established.
	start := g.Len()
	for i := 0; i < 7; i++ {
		id, err := g.InsertChecked(d.Base.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != start+i {
			t.Fatalf("insert %d got global id %d, want %d", i, id, start+i)
		}
	}
	if g.Len() != start+7 {
		t.Fatalf("len %d after 7 inserts from %d", g.Len(), start)
	}

	// Deletes route by id arithmetic; unknown ids are rejected exactly
	// like the single-fixer path.
	if changed, err := g.DeleteChecked(uint32(start)); err != nil || !changed {
		t.Fatalf("delete: changed=%v err=%v", changed, err)
	}
	if changed, err := g.DeleteChecked(uint32(start)); err != nil || changed {
		t.Fatalf("double delete: changed=%v err=%v", changed, err)
	}
	if _, err := g.DeleteChecked(1 << 30); err == nil {
		t.Fatal("deleting an unassigned id did not error")
	}

	total, per := g.OnlineStats()
	if len(per) != 3 {
		t.Fatalf("per-shard stats: %d entries", len(per))
	}
	sum := 0
	for _, st := range per {
		sum += st.Vectors
	}
	if total.Vectors != sum || total.Vectors != g.Len() {
		t.Fatalf("aggregate vectors %d, per-shard sum %d, len %d", total.Vectors, sum, g.Len())
	}
	if total.Live != total.Vectors-1 {
		t.Fatalf("live %d after one delete of %d", total.Live, total.Vectors)
	}
}

func TestGroupSearchRecordsAndFixes(t *testing.T) {
	d := testDataset(t)
	g := buildGroup(t, d, 4, core.OnlineConfig{BatchSize: 20, PrepEF: 60})
	for i := 0; i < 12; i++ {
		res, _ := g.SearchCtx(nil, d.History.Row(i), 5, 40, 4)
		if len(res) != 5 {
			t.Fatalf("search %d returned %d results", i, len(res))
		}
	}
	// Every shard recorded every query (each shard served its beam).
	if p := g.Pending(); p != 4*12 {
		t.Fatalf("pending %d, want %d", p, 4*12)
	}
	rep, err := g.FixPendingChecked()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 4*12 {
		t.Fatalf("fixed %d queries, want %d", rep.Queries, 4*12)
	}
	if g.Pending() != 0 {
		t.Fatalf("pending %d after fix", g.Pending())
	}
	total, _ := g.OnlineStats()
	if total.FixBatches != 4 {
		t.Fatalf("fix batches %d, want 4 (one per shard)", total.FixBatches)
	}
}

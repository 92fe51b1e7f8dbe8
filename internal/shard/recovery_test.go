package shard

import (
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/hnsw"
	"ngfix/internal/persist"
	"ngfix/internal/vec"
)

// TestMixedGenerationRecovery is the durability contract of per-shard
// stores: shards snapshot on their own cadence, so after a crash one
// shard recovers from a fresh snapshot while another recovers from an
// older snapshot plus its WAL tail — and the recovered group must
// converge to the exact pre-crash state with no cross-shard
// coordination.
func TestMixedGenerationRecovery(t *testing.T) {
	d := testDataset(t)
	root := t.TempDir()
	stores, err := persist.OpenSharded(root, 2, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	parts := Partition(d.Base, 2)
	fixers := make([]*core.OnlineFixer, 2)
	for s, p := range parts {
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
		fixers[s] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: stores[s]})
	}
	g, err := NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Diverge the shards: both take journaled mutations, then only shard
	// 0 seals a second snapshot. Shard 1's mutations live solely in its
	// WAL tail — the mixed-generation shape.
	var inserted []uint32
	for i := 0; i < 6; i++ {
		id, err := g.InsertChecked(d.History.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	if changed, err := g.DeleteChecked(inserted[0]); err != nil || !changed {
		t.Fatalf("delete: changed=%v err=%v", changed, err)
	}
	if err := g.Fixer(0).Snapshot(); err != nil {
		t.Fatal(err)
	}
	wantTotal, wantPer := g.OnlineStats()
	for _, st := range stores {
		st.Close()
	}

	// "Crash" and recover. The stores must sit at different generations
	// with only shard 1 holding unreplayed ops.
	re, err := persist.OpenSharded(root, 2, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if g0, g1 := re[0].Generation(), re[1].Generation(); g0 <= g1 {
		t.Fatalf("generations not mixed: shard0=%d shard1=%d", g0, g1)
	}

	ixs, replayed, err := Recover(re, core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
	if err != nil {
		t.Fatal(err)
	}
	if replayed[0] != 0 || replayed[1] == 0 {
		t.Fatalf("replayed: %v, want shard 0 none and shard 1 some", replayed)
	}
	rfixers := make([]*core.OnlineFixer, 2)
	for s, ix := range ixs {
		rfixers[s] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: re[s]})
	}
	rg, err := NewGroup(rfixers)
	if err != nil {
		t.Fatal(err)
	}
	// Seal recovery into a fresh generation before serving, as startup
	// does — recovery never appends to a log that might end torn.
	if err := rg.Snapshot(); err != nil {
		t.Fatal(err)
	}

	gotTotal, gotPer := rg.OnlineStats()
	if gotTotal.Vectors != wantTotal.Vectors || gotTotal.Live != wantTotal.Live {
		t.Fatalf("recovered %d vectors (%d live), want %d (%d live)",
			gotTotal.Vectors, gotTotal.Live, wantTotal.Vectors, wantTotal.Live)
	}
	for s := range gotPer {
		if gotPer[s].Vectors != wantPer[s].Vectors || gotPer[s].Live != wantPer[s].Live {
			t.Fatalf("shard %d recovered %d/%d, want %d/%d", s,
				gotPer[s].Vectors, gotPer[s].Live, wantPer[s].Vectors, wantPer[s].Live)
		}
	}

	// The recovered group serves and keeps the id arithmetic: searching
	// for an inserted vector finds its global id.
	probe := inserted[1]
	res, _ := rg.SearchCtx(nil, d.History.Row(1), 3, 60, 2)
	found := false
	for _, r := range res {
		if r.ID == probe {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered search for inserted vector missed id %d: %v", probe, res)
	}

	// Neither fixer is durability-degraded after recovery: per-shard
	// readiness starts clean.
	if bad := rg.DegradedShards(); len(bad) != 0 {
		t.Fatalf("recovered shards degraded: %v", bad)
	}

	// The group keeps assigning fresh unique ids across shards after a
	// mixed-generation recovery, even though shard lengths differ.
	seen := map[uint32]bool{}
	for i := 0; i < 6; i++ {
		id, err := rg.InsertChecked(d.History.Row(10 + i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate global id %d", id)
		}
		seen[id] = true
		if int(rg.Router().Local(id)) >= rg.Fixer(rg.Router().ShardOf(id)).Len() {
			t.Fatalf("id %d maps outside its shard", id)
		}
	}
}

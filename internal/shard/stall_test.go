package shard

import (
	"context"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// stallWAL is a fault-injection durability sink: LogInsert blocks until
// the test releases it, simulating a shard whose disk has stalled
// mid-append. The fixer holds its mutation mutex across the append (not
// its index lock), so the shard's mutation path is wedged behind it
// while its reads are not.
type stallWAL struct {
	entered chan struct{} // closed when an append is blocked inside the WAL
	release chan struct{} // closed by the test to un-stall
}

func newStallWAL() *stallWAL {
	return &stallWAL{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stallWAL) LogInsert(v []float32) error {
	close(w.entered)
	<-w.release
	return nil
}
func (w *stallWAL) LogDelete(id uint32) error                     { return nil }
func (w *stallWAL) LogFixEdges(updates []graph.ExtraUpdate) error { return nil }
func (w *stallWAL) Snapshot(g *graph.Graph) error                 { return nil }

// TestWALStallIndependence is the acceptance test for shard-local fault
// domains: with shard 0's WAL stalled mid-append, inserts routed to the
// other shards complete promptly, and a scatter search still reaches
// every shard, shard 0 included, for a full answer. Under the old
// single-fixer architecture the one write lock made every insert wait
// on the stalled append; sharding must confine the stall to shard 0's
// mutations.
func TestWALStallIndependence(t *testing.T) {
	d := testDataset(t)
	const n = 3
	parts := Partition(d.Base, n)
	fixers := make([]*core.OnlineFixer, n)
	wal := newStallWAL()
	for s, p := range parts {
		cfg := core.OnlineConfig{BatchSize: 1 << 20}
		if s == 0 {
			cfg.WAL = wal
		}
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
		fixers[s] = core.NewOnlineFixer(ix, cfg)
	}
	g, err := NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}

	// Drive the round-robin cursor to shard 0 and wedge it: the insert
	// goroutine blocks inside shard 0's WAL append, holding shard 0's
	// mutation mutex.
	for int(g.rr.Load())%n != 0 {
		if _, err := g.InsertChecked(d.History.Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	stalled := make(chan uint32, 1)
	go func() {
		id, _ := g.InsertChecked(d.History.Row(1))
		stalled <- id
	}()
	select {
	case <-wal.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled insert never reached the WAL")
	}

	// Inserts to shards 1 and 2 (the next two round-robin slots) must
	// complete while shard 0 is wedged. The deadline is generous against
	// CI noise but far below "waits for the stall to clear" (which only
	// the test can clear).
	doneOK := make(chan time.Duration, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			start := time.Now()
			if _, err := g.InsertChecked(d.History.Row(2 + i)); err != nil {
				t.Errorf("insert during stall: %v", err)
			}
			doneOK <- time.Since(start)
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case el := <-doneOK:
			t.Logf("other-shard insert completed in %s during shard-0 stall", el)
		case <-time.After(5 * time.Second):
			t.Fatal("insert to a healthy shard blocked behind shard 0's WAL stall")
		}
	}

	// A scatter-gather search answers in full: shard 0 journals outside
	// its index lock, so its reads never wait on the stalled append. The
	// deadline only turns a regression into a truncated (failing) answer
	// instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, st := g.SearchCtx(ctx, d.TestOOD.Row(0), 5, 40, n)
	if st.Truncated || len(res) != 5 {
		t.Fatalf("search during stall: %d results, truncated %v; want 5 untruncated", len(res), st.Truncated)
	}

	// Release the stall: the wedged insert completes and lands on shard 0.
	close(wal.release)
	select {
	case id := <-stalled:
		if g.Router().ShardOf(id) != 0 {
			t.Fatalf("stalled insert landed on shard %d", g.Router().ShardOf(id))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled insert never completed after release")
	}
}

package repair

import (
	"context"
	"sync"
	"testing"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/graph"
)

// freezeWAL blocks inside LogFixEdges until released — a WAL volume
// that froze mid-write while the fix batch holds its admission units
// and its shard's write lock.
type freezeWAL struct {
	once    sync.Once
	started chan struct{} // closed when the first fix batch is inside
	gate    chan struct{} // close to thaw
}

func (w *freezeWAL) LogInsert([]float32) error { return nil }
func (w *freezeWAL) LogDelete(uint32) error    { return nil }
func (w *freezeWAL) LogFixEdges([]graph.ExtraUpdate) error {
	w.once.Do(func() { close(w.started) })
	<-w.gate
	return nil
}
func (w *freezeWAL) Snapshot(*graph.Graph) error { return nil }

// The starvation guarantee under the worst case: a repair batch frozen
// mid-WAL-write holds its admission units indefinitely, yet (a) a
// search still admits promptly, because FixCost is clamped to half the
// shared capacity, and (b) the other shard's controller — an
// independent failure domain — keeps running batches.
func TestFrozenRepairNeverStarvesSearch(t *testing.T) {
	adm := admission.New(admission.Config{Capacity: 16, QueueDepth: 32, FixUnitQueries: 1})
	// The clamp that makes the guarantee: no batch, however large, can
	// cost more than half the capacity.
	if got := adm.FixCost(1 << 20); got > 8 {
		t.Fatalf("FixCost clamp broken: %d units of 16 capacity", got)
	}

	wal := &freezeWAL{started: make(chan struct{}), gate: make(chan struct{})}
	// Shard 0: sixteen OOD queries, so the batch journals edges — and
	// freezes inside the WAL holding its admission units.
	f0, d0 := testFixer(t, 16, wal)
	record(f0, d0, 0, 16)
	// Shard 1: a healthy fixer on the same limiter.
	f1, d1 := testFixer(t, 16, nil)
	record(f1, d1, 0, 16)

	c0 := New(0, f0, adm, Config{Interval: 2 * time.Millisecond})
	c1 := New(1, f1, adm, Config{Interval: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c0.Run(ctx, 0, nil) }()
	go func() { defer wg.Done(); c1.Run(ctx, 0, nil) }()
	defer func() { cancel(); wg.Wait() }()
	defer close(wal.gate) // thaw before cancel so shard 0's loop can exit

	select {
	case <-wal.started:
	case <-time.After(10 * time.Second):
		t.Fatal("shard 0's fix batch never reached the WAL")
	}

	// Shard 0 is now wedged inside LogFixEdges. A search must admit
	// without waiting out the freeze.
	actx, acancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer acancel()
	release, err := adm.Acquire(actx, adm.SearchCost(100))
	if err != nil {
		t.Fatalf("search starved behind frozen repair: %v", err)
	}
	release()

	// And shard 1 keeps repairing: feed it and watch its batch counter.
	deadline := time.After(10 * time.Second)
	for i := 16; c1.Status().BatchesRun < 2; i++ {
		record(f1, d1, i, 1)
		select {
		case <-deadline:
			t.Fatalf("healthy shard stopped batching behind frozen sibling: %+v", c1.Status())
		case <-time.After(time.Millisecond):
		}
	}
}

package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// Signals must report the trigger inputs exactly: queue depth and
// capacity, lifetime sheds, batch count, and the durability state.
func TestSignalsSnapshot(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	wal := &recordingWAL{}
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 4, WAL: wal})

	sig := o.Signals()
	if sig.Pending != 0 || sig.Shed != 0 || sig.Batches != 0 || sig.UnreachableEWMA != 0 || sig.Degraded {
		t.Fatalf("fresh fixer signals = %+v, want zero", sig)
	}
	if sig.BatchCap != 4 {
		t.Fatalf("BatchCap = %d, want 4", sig.BatchCap)
	}

	// Six recorded queries into a 4-slot buffer: 4 pending, 2 shed.
	for qi := 0; qi < 6; qi++ {
		o.Search(d.History.Row(qi), 5, 15)
	}
	sig = o.Signals()
	if sig.Pending != 4 || sig.Shed != 2 {
		t.Fatalf("after overrun: pending=%d shed=%d, want 4 and 2", sig.Pending, sig.Shed)
	}

	o.FixPending()
	sig = o.Signals()
	if sig.Pending != 0 || sig.Batches != 1 {
		t.Fatalf("after fix: pending=%d batches=%d, want 0 and 1", sig.Pending, sig.Batches)
	}

	wal.fail = errTestWAL
	o.Insert(append([]float32(nil), d.History.Row(0)...))
	sig = o.Signals()
	if sig.WALErrors != 1 || !sig.Degraded {
		t.Fatalf("after failed append: WALErrors=%d degraded=%v, want 1 and true", sig.WALErrors, sig.Degraded)
	}
}

// beamTrapGraph builds a topology where the unreachable signal actually
// fires through the fixer's own pipeline: the query's true vicinity (B)
// hangs off a high-detour bridge, with a decoy cloud between the entry
// region (A) and the query. A narrow beam (RFix's reachability check)
// fills its candidate list with decoy points and terminates before ever
// expanding the bridge — while the wide truth-prep beam (PrepEF) walks
// the whole graph and finds B. Truth ∩ narrow-reach = ∅ ⇒ RFix triggers.
//
//	A (entry, ~(0,0)) ——— decoy cloud (~(80,0)) ···×··· B (~(97,2))  ← query (100,0)
//	 \____________________ bridge (0,80)→(90,60)→(95,20) ____________/
func beamTrapGraph() (*graph.Graph, []float32) {
	var rows [][]float32
	add := func(x, y float32) { rows = append(rows, []float32{x, y}) }
	for i := 0; i < 40; i++ { // A: ids 0..39
		add(float32(i%8)*0.3, float32(i/8)*0.3)
	}
	for i := 0; i < 40; i++ { // decoy cloud: ids 40..79
		add(78+float32(i%8)*0.3, float32(i/8)*0.3)
	}
	bridge := [][2]float32{{0, 80}, {30, 80}, {60, 80}, {90, 60}, {95, 20}} // ids 80..84
	for _, b := range bridge {
		add(b[0], b[1])
	}
	for i := 0; i < 25; i++ { // B, the true vicinity: ids 85..109
		add(95+float32(i%5), float32(i/5)*0.8)
	}
	g := graph.New(vec.MatrixFromRows(rows), vec.L2)
	clique := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := lo; j < hi; j++ {
				if i != j {
					g.AddBaseEdge(uint32(i), uint32(j))
				}
			}
		}
	}
	both := func(u, v uint32) { g.AddBaseEdge(u, v); g.AddBaseEdge(v, u) }
	clique(0, 40)   // A
	clique(40, 80)  // decoy cloud
	clique(85, 110) // B
	both(39, 40)    // A ↔ cloud
	both(38, 41)
	both(0, 80) // A ↔ bridge start
	for u := uint32(80); u < 84; u++ {
		both(u, u+1) // bridge chain
	}
	both(84, 85) // bridge ↔ B
	both(84, 86)
	g.EntryPoint = 0
	return g, []float32{100, 0}
}

// The unreachable EWMA must seed on the first batch's rate and then
// smooth with alpha=0.3 — so a controller sees a stable navigability
// signal, not raw per-batch noise. Driven through the real pipeline: the
// beam-trap workload makes batch 1 trigger RFix (rate 1), whose repair
// edges make batch 2 reachable (rate 0), so the EWMA must land exactly
// on 0.7 = 0.3·0 + 0.7·1.
func TestUnreachableEWMASmoothing(t *testing.T) {
	g, q := beamTrapGraph()
	ix := New(g, Options{Rounds: []Round{{K: 20, RFix: true}}, LEx: 32, RFixL: 20})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 50})

	o.Search(q, 10, 20)
	rep1 := o.FixPending()
	if rep1.Queries != 1 || rep1.RFixTriggered != 1 {
		t.Fatalf("batch 1: queries=%d triggered=%d, want the trap to fire (1 and 1)", rep1.Queries, rep1.RFixTriggered)
	}
	if rep1.RFixReached != 1 {
		t.Fatalf("RFix did not repair the trap: %+v", rep1)
	}
	if got := o.Signals().UnreachableEWMA; math.Abs(got-1) > 1e-12 {
		t.Fatalf("EWMA after first batch = %v, want seeded to 1", got)
	}

	// Same query again: the InfEH shortcut edges RFix just added make the
	// vicinity reachable, so the batch rate drops to 0.
	o.Search(q, 10, 20)
	rep2 := o.FixPending()
	if rep2.Queries != 1 || rep2.RFixTriggered != 0 {
		t.Fatalf("batch 2: queries=%d triggered=%d, want repaired (1 and 0)", rep2.Queries, rep2.RFixTriggered)
	}
	want := ewmaAlpha*0 + (1-ewmaAlpha)*1
	if got := o.Signals().UnreachableEWMA; math.Abs(got-want) > 1e-12 {
		t.Fatalf("EWMA after second batch = %v, want %v", got, want)
	}
}

// A limited drain consumes the OLDEST recorded queries and leaves the
// rest in order — the shrunken batches the repair controller runs under
// pressure must not reorder or alias the live buffer.
func TestFixPendingLimitDrainsOldestFirst(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 20})

	for qi := 0; qi < 10; qi++ {
		o.Search(d.History.Row(qi), 5, 15)
	}
	rep, err := o.FixPendingLimitChecked(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 4 {
		t.Fatalf("limited fix consumed %d queries, want 4", rep.Queries)
	}
	if got := o.Pending(); got != 6 {
		t.Fatalf("pending after limited fix = %d, want 6", got)
	}
	// Queries 0..3 went into the batch; the buffer must now start at 4.
	want := d.History.Row(4)
	got := o.pending.row(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("oldest retained query is not query 4 (dim %d: %v != %v)", i, got[i], want[i])
		}
	}

	// A limit at or above the depth is a full drain, like limit 0.
	rep, err = o.FixPendingLimitChecked(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 6 || o.Pending() != 0 {
		t.Fatalf("full drain via large limit: queries=%d pending=%d", rep.Queries, o.Pending())
	}
	// Empty buffer: no work, no error, regardless of limit.
	if rep, err := o.FixPendingLimitChecked(3); err != nil || rep.Queries != 0 {
		t.Fatalf("empty limited fix: rep=%+v err=%v", rep, err)
	}
}

// BackoffDelay at fails=0 must behave like the first failure (shift 0),
// not underflow the shift — callers may consult it before incrementing.
func TestBackoffDelayZeroFails(t *testing.T) {
	base := 100 * time.Millisecond
	if d := BackoffDelay(base, 0, 0.5); d != base {
		t.Fatalf("fails=0 delay %s, want %s", d, base)
	}
	if d := BackoffDelay(base, 0, 0); d != 75*time.Millisecond {
		t.Fatalf("fails=0 u=0 delay %s, want 75ms", d)
	}
	if d := BackoffDelay(base, -3, 0.5); d != base {
		t.Fatalf("negative fails delay %s, want %s", d, base)
	}
}

// panicSnapshotWAL panics inside Snapshot — a stand-in for a buggy
// serializer or storage driver blowing up mid-batch.
type panicSnapshotWAL struct{}

func (panicSnapshotWAL) LogInsert(v []float32) error                   { return nil }
func (panicSnapshotWAL) LogDelete(id uint32) error                     { return nil }
func (panicSnapshotWAL) LogFixEdges(updates []graph.ExtraUpdate) error { return nil }
func (panicSnapshotWAL) Snapshot(g *graph.Graph) error                 { panic("serializer bug") }

// fixSafely must convert a panicking fix batch into an error so the
// background loop backs off instead of dying with the goroutine.
func TestFixSafelyConvertsPanicToError(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	// SnapshotEveryBatches=1 routes the first fix batch into the
	// panicking snapshot path.
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 10, WAL: panicSnapshotWAL{}, SnapshotEveryBatches: 1})
	for qi := 0; qi < 10; qi++ {
		o.Search(d.History.Row(qi), 5, 15)
	}
	rep, err := o.fixSafely()
	if err == nil {
		t.Fatal("fixSafely swallowed the panic without an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "serializer bug") {
		t.Fatalf("panic not surfaced in the error: %v", err)
	}
	_ = rep
	// The panic unwound outside the graph locks: the fixer still serves.
	if res, _ := o.Search(d.History.Row(0), 5, 15); len(res) == 0 {
		t.Fatal("fixer unusable after a recovered fix panic")
	}
}

package repair

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

func discardLogf(string, ...interface{}) {}

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

// testFixer builds a small real fixer over a generated dataset — the
// controller is exercised against the actual pipeline, not a mock.
func testFixer(t *testing.T, batch int, wal core.WAL) (*core.OnlineFixer, *dataset.Dataset) {
	return testFixerCfg(t, core.OnlineConfig{BatchSize: batch, WAL: wal})
}

func testFixerCfg(t *testing.T, cfg core.OnlineConfig) (*core.OnlineFixer, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "repair", N: 400, NHist: 80, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 7,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	ix := core.New(g, core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
	cfg.PrepEF = 80
	return core.NewOnlineFixer(ix, cfg), d
}

func record(f *core.OnlineFixer, d *dataset.Dataset, from, n int) {
	for i := from; i < from+n; i++ {
		f.Search(d.History.Row(i%80), 5, 15)
	}
}

// One tick with work pending runs one batch, drains the queue, and
// attributes the trigger.
func TestTickFixesPendingAndAccounts(t *testing.T) {
	f, d := testFixer(t, 50, nil)
	c := New(0, f, nil, Config{Interval: 100 * time.Millisecond})
	record(f, d, 0, 10)

	next := c.tick(testRNG(), discardLogf)
	if next != c.cfg.Interval {
		t.Fatalf("steady tick next = %s, want %s", next, c.cfg.Interval)
	}
	st := c.Status()
	if st.BatchesRun != 1 || st.Mode != "steady" || st.Reason != ReasonInterval {
		t.Fatalf("status after tick: %+v", st)
	}
	if st.CostUnits != 0 {
		t.Fatalf("un-governed batch paid %d cost units", st.CostUnits)
	}
	if got := f.Signals().Pending; got != 0 {
		t.Fatalf("pending after tick = %d, want 0", got)
	}

	// Nothing pending: the tick plans, re-attributes, and fixes nothing.
	next = c.tick(testRNG(), discardLogf)
	if next != c.cfg.Interval || c.Status().BatchesRun != 1 {
		t.Fatalf("idle tick: next=%s batches=%d", next, c.Status().BatchesRun)
	}
}

// Saturation economics: denied the full batch cost, the tick halves the
// batch until admission grants it — paying strictly less than the
// full-drain cost — and when even the minimum batch is denied it defers
// the tick entirely and retreats the cadence.
func TestTickShrinksThenDefersUnderSaturation(t *testing.T) {
	adm := admission.New(admission.Config{Capacity: 64, QueueDepth: 128, FixUnitQueries: 1})
	f, d := testFixer(t, 128, nil)
	c := New(0, f, adm, Config{Interval: 50 * time.Millisecond, MinBatch: 4})
	record(f, d, 0, 100)

	// Foreign load holds 40 of 64 units. Full drain would cost
	// FixCost(100)=32 (the half-capacity clamp): 40+32 > 64, denied.
	// Halving: 50→32 denied, 25→25 denied, 12→12 granted.
	hold, ok := adm.TryAcquire(40)
	if !ok {
		t.Fatal("setup: could not take 40 units")
	}
	fullCost := adm.FixCost(100)
	next := c.tick(testRNG(), discardLogf)
	st := c.Status()
	if st.BatchesRun != 1 || st.BatchesShrunk != 1 {
		t.Fatalf("shrink tick: %+v", st)
	}
	if st.CostUnits != 12 {
		t.Fatalf("shrunk batch paid %d units, want 12", st.CostUnits)
	}
	if st.CostUnits >= uint64(fullCost) {
		t.Fatalf("shrunk cost %d not below full-drain cost %d", st.CostUnits, fullCost)
	}
	if got := f.Signals().Pending; got != 88 {
		t.Fatalf("pending after shrunk batch = %d, want 88", got)
	}
	if next != c.cfg.Interval {
		t.Fatalf("shrink tick next = %s, want %s", next, c.cfg.Interval)
	}

	// Tighten to 62/64 held: even MinBatch=4 costs more than the 2 free
	// units, so the tick defers, flags backoff/pressure, and retreats at
	// least a doubled interval.
	hold2, ok := adm.TryAcquire(22)
	if !ok {
		t.Fatal("setup: could not take 22 more units")
	}
	next = c.tick(testRNG(), discardLogf)
	st = c.Status()
	if st.BatchesDeferred != 1 || st.BatchesRun != 1 {
		t.Fatalf("defer tick: %+v", st)
	}
	if st.Mode != "backoff" || st.Reason != ReasonPressure {
		t.Fatalf("defer attribution: %+v", st)
	}
	if got := f.Signals().Pending; got != 88 {
		t.Fatalf("deferred tick drained the queue: pending %d", got)
	}
	if want := 2 * c.cfg.Interval; next != want {
		t.Fatalf("defer retreat = %s, want %s", next, want)
	}
	if next > c.cfg.MaxInterval {
		t.Fatalf("retreat %s beyond ceiling %s", next, c.cfg.MaxInterval)
	}
	hold()
	hold2()
}

// panicSnapWAL panics inside Snapshot on demand. With
// SnapshotEveryBatches=1 every fix batch reaches Snapshot regardless of
// whether it produced edge updates, so the failure injection is
// deterministic; fixSafely converts the panic into the error the
// controller treats like any other durability failure.
type panicSnapWAL struct {
	mu   sync.Mutex
	fail bool
}

func (w *panicSnapWAL) setFail(b bool) { w.mu.Lock(); w.fail = b; w.mu.Unlock() }

func (w *panicSnapWAL) LogInsert([]float32) error             { return nil }
func (w *panicSnapWAL) LogDelete(uint32) error                { return nil }
func (w *panicSnapWAL) LogFixEdges([]graph.ExtraUpdate) error { return nil }
func (w *panicSnapWAL) Snapshot(*graph.Graph) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail {
		panic("journal volume gone")
	}
	return nil
}

// Durability failures put the controller on the jittered exponential
// retry schedule, wedge it after the configured streak, and a single
// success clears the whole slate.
func TestTickWALErrorBackoffWedgeRecovery(t *testing.T) {
	wal := &panicSnapWAL{fail: true}
	f, d := testFixerCfg(t, core.OnlineConfig{BatchSize: 50, WAL: wal, SnapshotEveryBatches: 1})
	c := New(0, f, nil, Config{Interval: 10 * time.Millisecond})

	for i := 1; i <= 3; i++ {
		// A failed batch still drains its queries, so every retry gets
		// fresh repair signal.
		record(f, d, i*8, 8)
		next := c.tick(testRNG(), discardLogf)
		st := c.Status()
		if st.ConsecutiveFailures != i {
			t.Fatalf("after failing tick %d: %+v", i, st)
		}
		if st.Mode != "backoff" || st.Reason != ReasonWALError {
			t.Fatalf("failure attribution on tick %d: %+v", i, st)
		}
		if st.LastError == "" {
			t.Fatalf("tick %d lost the error detail", i)
		}
		if wantWedged := i >= c.cfg.WedgedAfter; st.Wedged != wantWedged {
			t.Fatalf("tick %d wedged=%v, want %v", i, st.Wedged, wantWedged)
		}
		if i == 3 && next <= c.cfg.Interval {
			t.Fatalf("third retry delay %s not backed off beyond %s", next, c.cfg.Interval)
		}
	}
	if got := NewFleet(c).WedgedShards(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("WedgedShards = %v, want [0]", got)
	}

	// While wedged, a tick with nothing to fix must stay visibly in
	// backoff — /readyz reports the wedge, the mode cannot contradict it.
	c.tick(testRNG(), discardLogf)
	if st := c.Status(); st.Mode != "backoff" || !st.Wedged {
		t.Fatalf("idle wedged tick drifted: %+v", st)
	}

	wal.setFail(false)
	record(f, d, 40, 8)
	c.tick(testRNG(), discardLogf)
	st := c.Status()
	if st.ConsecutiveFailures != 0 || st.Wedged || st.LastError != "" {
		t.Fatalf("recovery did not clear the slate: %+v", st)
	}
	if st.BatchesRun != 1 || st.Mode != "steady" {
		t.Fatalf("recovered tick: %+v", st)
	}
}

// fixSafely must convert a panicking fix batch into an error so the
// controller backs off instead of dying with its goroutine, and the
// panic must unwind outside the graph locks.
func TestFixSafelyConvertsPanicToError(t *testing.T) {
	f, d := testFixerCfg(t, core.OnlineConfig{BatchSize: 10, WAL: &panicSnapWAL{fail: true}, SnapshotEveryBatches: 1})
	c := New(0, f, nil, Config{Interval: time.Second})
	record(f, d, 0, 10)
	_, err := c.fixSafely(0)
	if err == nil {
		t.Fatal("fixSafely swallowed the panic without an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "journal volume gone") {
		t.Fatalf("panic not surfaced in the error: %v", err)
	}
	if res, _ := f.Search(d.History.Row(0), 5, 15); len(res) == 0 {
		t.Fatal("fixer unusable after a recovered fix panic")
	}
}

// Cancellation during a backoff sleep must return promptly — a shutdown
// signal cannot wait out a long retry delay.
func TestControllerRunCancelDuringBackoff(t *testing.T) {
	f, d := testFixerCfg(t, core.OnlineConfig{BatchSize: 10, WAL: &panicSnapWAL{fail: true}, SnapshotEveryBatches: 1})
	c := New(0, f, nil, Config{Interval: time.Second})
	record(f, d, 0, 10)

	// With a 1s interval the first (failing) batch schedules a backoff of
	// at least 750ms; cancelling right after the failure line must not
	// wait it out.
	failed := make(chan struct{})
	var once sync.Once
	logf := func(format string, args ...interface{}) {
		if strings.Contains(format, "repair fix failed") {
			once.Do(func() { close(failed) })
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		c.Run(ctx, 0, logf)
		close(done)
	}()
	select {
	case <-failed:
	case <-time.After(10 * time.Second):
		t.Fatal("fix failure never happened")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Run did not return promptly from a backoff sleep")
	}
}

// The fleet: per-shard status in order, worst-first aggregate mode, and
// wedged-shard naming.
func TestFleetStatusModeWedged(t *testing.T) {
	f0, _ := testFixer(t, 10, nil)
	f1, _ := testFixer(t, 10, nil)
	c0 := New(0, f0, nil, Config{Interval: time.Second})
	c1 := New(1, f1, nil, Config{Interval: time.Second})
	fl := NewFleet(c0, c1)

	sts := fl.Status()
	if len(sts) != 2 || sts[0].Shard != 0 || sts[1].Shard != 1 {
		t.Fatalf("fleet status order: %+v", sts)
	}
	if fl.Mode() != "steady" {
		t.Fatalf("fresh fleet mode %q", fl.Mode())
	}
	c1.note(func() { c1.mode = ModeBackoff })
	if fl.Mode() != "backoff" {
		t.Fatalf("one shard backing off: fleet mode %q", fl.Mode())
	}
	c1.note(func() { c1.fails = c1.cfg.WedgedAfter })
	if got := fl.WedgedShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("WedgedShards = %v, want [1]", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewFleet() with no controllers did not panic")
		}
	}()
	NewFleet()
}

// Fleet.Run staggers real goroutine loops; with tiny intervals both
// shards must run batches independently and stop on cancel.
func TestFleetRunStaggered(t *testing.T) {
	f0, d0 := testFixer(t, 20, nil)
	f1, d1 := testFixer(t, 20, nil)
	c0 := New(0, f0, nil, Config{Interval: 2 * time.Millisecond})
	c1 := New(1, f1, nil, Config{Interval: 2 * time.Millisecond})
	record(f0, d0, 0, 10)
	record(f1, d1, 0, 10)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { NewFleet(c0, c1).Run(ctx, nil); close(done) }()

	deadline := time.After(5 * time.Second)
	for c0.Status().BatchesRun == 0 || c1.Status().BatchesRun == 0 {
		select {
		case <-deadline:
			t.Fatalf("fleet made no progress: %+v / %+v", c0.Status(), c1.Status())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("fleet did not stop on cancel")
	}
}

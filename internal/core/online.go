package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ngfix/internal/graph"
	"ngfix/internal/obs"
	"ngfix/internal/vec"
)

// OnlineFixer is the production shape of the paper's core idea: "leverage
// online queries to dynamically fix defects of the graph". It wraps an
// Index behind a read-write lock, records a sample of served queries, and
// repairs the graph with them in batches — on demand (FixPending) or
// from a repair controller (internal/repair) watching the fixer's
// Signals.
//
// Searches take the read lock and run concurrently; a fix batch takes the
// write lock, so reads see either the old or the repaired graph, never a
// partial mutation. This is exactly the MainSearch deployment story from
// §6.2: the index keeps adapting to the live workload without rebuilds.
//
// When a WAL is configured, every acknowledged mutation is journaled
// before the call returns — inserts and deletes logically, fix batches as
// the exact extra-adjacency replacements they performed — and the fixer
// triggers full snapshots on the configured cadence, so a crash loses
// neither the base graph nor the edges learned from live traffic.
//
// Lock order: pmu before mu, never the reverse. pmu serializes the set
// {graph mutations, snapshots}: every mutation path (Insert, Delete, the
// apply phase of a fix batch, PurgeAndRepair) holds pmu around its mu
// critical section, and a snapshot holds pmu alone for its whole
// duration. The graph is therefore quiescent while a snapshot serializes
// it even though mu is free — so searches (read-only) keep flowing during
// a snapshot's encode and fsync, and only mutations stall behind it.
type OnlineFixer struct {
	pmu sync.Mutex // serializes mutations with snapshots; acquired before mu
	mu  sync.RWMutex
	ix  *Index

	// qmu guards the query-recording state (pending, counter, shed) only.
	// Recording a served query is an append to a side buffer, not a graph
	// mutation: putting it under mu.Lock() would serialize every
	// concurrent reader behind every append. qmu is leaf-level — never
	// acquire pmu or mu while holding it.
	qmu     sync.Mutex
	pending queryRing
	counter int
	shed    int

	batchSize int
	sampleN   int // record 1 of every sampleN queries
	prepEF    int
	truthK    int

	wal          WAL
	snapBatches  int // snapshot every N fix batches (0 = never)
	snapMuts     int // snapshot every M inserts+deletes (0 = never)
	sinceBatches int
	sinceMuts    int

	totalFixed   int
	totalBatches int
	walErrs      int
	lastWALErr   error

	// snapSuspended pauses the automatic snapshot cadence (explicit
	// Snapshot calls are unaffected). A live reshard sets it so the
	// parent's generation stays put while children stream the current
	// snapshot + WAL tail; a generation bump mid-stream would force every
	// child into a full resync.
	snapSuspended atomic.Bool

	// dim is immutable for the fixer's lifetime; nvec tracks the vector
	// count (monotone: deletes are tombstones). Both are readable without
	// the lock so request validation stays responsive even while a
	// stalled mutation (e.g. a slow-disk WAL append) holds mu — the whole
	// point of admission control is to shed load before the lock, and
	// that requires the pre-lock path to never block on it.
	dim  int
	nvec atomic.Int64

	// metrics is nil unless OnlineConfig.Metrics supplied a registry; it
	// is set once at construction, so reads need no synchronization.
	metrics *fixerMetrics
	// reg keeps the registry itself so PQ serving, enabled after
	// construction, can register its own families (see pqserve.go).
	reg *obs.Registry

	// pqs is nil until EnablePQ/AttachPQ switches serving to the fused
	// compressed path. Written once under pmu+mu; read under mu.RLock on
	// the search path and under pmu on the snapshot path.
	pqs *pqState

	searchers sync.Pool
}

// WAL is the durability sink the fixer writes through (implemented by
// internal/persist.Store). Log appends are invoked while the fixer holds
// its write lock; Snapshot is invoked with only the fixer's mutation
// mutex held, so searches proceed while it runs. In every case the fixer
// guarantees implementations observe a quiescent graph and a log order
// identical to the apply order.
type WAL interface {
	// LogInsert journals an appended base vector.
	LogInsert(v []float32) error
	// LogDelete journals a tombstone.
	LogDelete(id uint32) error
	// LogFixEdges journals the extra-adjacency replacements a fix batch
	// performed.
	LogFixEdges(updates []graph.ExtraUpdate) error
	// Snapshot durably persists the whole graph and resets the log.
	Snapshot(g *graph.Graph) error
}

// ErrNoWAL is returned by Snapshot when the fixer was built without a
// durability sink.
var ErrNoWAL = errors.New("core: online fixer has no WAL configured")

// ErrUnknownID is returned by DeleteChecked for an id the index has never
// assigned.
var ErrUnknownID = errors.New("core: id out of range")

// OnlineConfig controls an OnlineFixer.
type OnlineConfig struct {
	// BatchSize is how many recorded queries trigger (or fill) one fix
	// batch (default 64).
	BatchSize int
	// SampleEvery records every n-th query (default 1: all queries).
	SampleEvery int
	// PrepEF is the search-list size for approximate-truth preprocessing
	// of recorded queries (default 200).
	PrepEF int
	// TruthK is how many neighbors preprocessing collects (default 64,
	// enough for the default two-round schedule).
	TruthK int
	// WAL, when non-nil, receives every durable mutation and snapshot.
	WAL WAL
	// SnapshotEveryBatches triggers an automatic WAL snapshot after this
	// many fix batches (0 disables batch-triggered snapshots).
	SnapshotEveryBatches int
	// SnapshotEveryMutations triggers an automatic WAL snapshot after
	// this many inserts+deletes (0 disables mutation-triggered
	// snapshots).
	SnapshotEveryMutations int
	// Metrics, when non-nil, receives the fixer's telemetry: per-search
	// NDC/hop distributions and per-batch repair signals (edges added,
	// unreachable-query rate before/after, batch duration), plus live
	// gauges for vectors and the pending-queries buffer.
	Metrics *obs.Registry
}

// NewOnlineFixer wraps ix. The wrapped index must not be used directly
// while the fixer is live.
func NewOnlineFixer(ix *Index, cfg OnlineConfig) *OnlineFixer {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.PrepEF <= 0 {
		cfg.PrepEF = 200
	}
	if cfg.TruthK <= 0 {
		cfg.TruthK = 64
	}
	o := &OnlineFixer{
		ix:          ix,
		pending:     queryRing{dim: ix.G.Dim(), capRows: cfg.BatchSize},
		batchSize:   cfg.BatchSize,
		sampleN:     cfg.SampleEvery,
		prepEF:      cfg.PrepEF,
		truthK:      cfg.TruthK,
		wal:         cfg.WAL,
		snapBatches: cfg.SnapshotEveryBatches,
		snapMuts:    cfg.SnapshotEveryMutations,
		dim:         ix.G.Dim(),
		reg:         cfg.Metrics,
	}
	o.nvec.Store(int64(ix.G.Len()))
	o.searchers.New = func() interface{} { return graph.NewSearcher(ix.G) }
	if cfg.Metrics != nil {
		o.metrics = newFixerMetrics(cfg.Metrics, o)
	}
	return o
}

// Search serves one query (top-k, search list ef) and records it for a
// future fix batch. When the recording buffer is full, the oldest
// recorded query is shed to make room — the freshest traffic is the most
// valuable repair signal. Safe for concurrent use.
func (o *OnlineFixer) Search(q []float32, k, ef int) ([]graph.Result, graph.Stats) {
	return o.SearchCtx(nil, q, k, ef)
}

// SearchCtx is Search with cooperative cancellation (nil ctx never
// cancels): when ctx ends mid-search — client disconnect, server budget
// expired — the beam search stops within a few hops and returns the best
// results found so far with Stats.Truncated set. A truncated query is
// still recorded for fixing: the query vector is a valid repair signal
// regardless of how much of its search the client waited for.
func (o *OnlineFixer) SearchCtx(ctx context.Context, q []float32, k, ef int) ([]graph.Result, graph.Stats) {
	o.mu.RLock()
	var res []graph.Result
	var st graph.Stats
	if ps := o.pqs; ps != nil {
		// Fused path: navigate on ADC table lookups over the codes, touch
		// full-precision rows only for the exact rerank. Stats carry the
		// navigation work in ADCLookups and just the rerank in NDC.
		res, st = o.searchPQLocked(ctx, ps, q, k, ef)
		o.mu.RUnlock()
		ps.observe(st)
	} else {
		s := o.searchers.Get().(*graph.Searcher)
		res, st = s.SearchFromCtx(ctx, q, k, ef, o.ix.G.EntryPoint)
		o.searchers.Put(s)
		o.mu.RUnlock()
	}
	o.metrics.observeSearch(st.NDC, st.Hops)

	// Recording takes only the small query-buffer mutex: concurrent
	// searches no longer queue behind the index write lock to append a
	// few hundred bytes.
	o.qmu.Lock()
	o.counter++
	if o.counter%o.sampleN == 0 {
		if o.pending.full() {
			o.pending.dropOldest()
			o.shed++
		}
		o.pending.push(q)
	}
	o.qmu.Unlock()
	return res, st
}

// Pending returns how many recorded queries await fixing.
func (o *OnlineFixer) Pending() int {
	o.qmu.Lock()
	defer o.qmu.Unlock()
	return o.pending.count
}

// Stats returns totals: queries fixed and batches run.
func (o *OnlineFixer) Stats() (fixedQueries, batches int) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.totalFixed, o.totalBatches
}

// OnlineStats is a consistent snapshot of the fixer's counters and the
// wrapped graph's shape. FixedQueries and FixBatches are monotonically
// non-decreasing over the fixer's lifetime.
type OnlineStats struct {
	// Graph shape, gathered under the same lock acquisition as the
	// counters so observers never see a torn view of a mid-mutation
	// graph. Vectors never shrinks (deletes are tombstones).
	Vectors    int
	Live       int
	Dim        int
	Metric     vec.Metric
	AvgDegree  float64
	SizeBytes  int64
	BaseEdges  int
	ExtraEdges int

	Pending      int
	FixedQueries int
	FixBatches   int
	// ShedQueries counts recorded queries dropped oldest-first because
	// the buffer was full when a fresher query arrived.
	ShedQueries int
	// WALErrors counts durability failures the fixer absorbed (serving
	// continued); LastWALError describes the most recent one not yet
	// cleared by a successful snapshot.
	WALErrors    int
	LastWALError string
}

// OnlineStats returns the fixer's counters and graph shape under one lock
// acquisition. This is the only race-safe way to read graph-derived
// numbers while the fixer is live: the graph itself is mutated under the
// fixer's write lock, so unlocked reads through Index() can tear.
func (o *OnlineFixer) OnlineStats() OnlineStats {
	// The recording counters live under their own mutex now; read them
	// first (qmu is leaf-level, so it cannot be held across the mu
	// acquisition below). Pending/Shed may drift a query relative to the
	// graph counters between the two acquisitions — they are progress
	// gauges, not invariants.
	o.qmu.Lock()
	pending, shed := o.pending.count, o.shed
	o.qmu.Unlock()

	o.mu.RLock()
	defer o.mu.RUnlock()
	g := o.ix.G
	base, extra := g.EdgeCount()
	st := OnlineStats{
		Vectors:      g.Len(),
		Live:         g.Live(),
		Dim:          g.Dim(),
		Metric:       g.Metric,
		AvgDegree:    g.AvgDegree(),
		SizeBytes:    g.SizeBytes(),
		BaseEdges:    base,
		ExtraEdges:   extra,
		Pending:      pending,
		FixedQueries: o.totalFixed,
		FixBatches:   o.totalBatches,
		ShedQueries:  shed,
		WALErrors:    o.walErrs,
	}
	if o.lastWALErr != nil {
		st.LastWALError = o.lastWALErr.Error()
	}
	return st
}

// Signals is the snapshot a repair controller decides on: how much
// repair signal is waiting (and being lost), and whether durability is
// failing. Every field is cheap to read — a controller polls this on
// every tick.
type Signals struct {
	// Pending is the recorded-query buffer depth; BatchCap is its
	// capacity (the configured batch size). Pending == BatchCap means
	// the next recorded query sheds the oldest one.
	Pending  int
	BatchCap int
	// Shed counts recorded queries dropped oldest-first over the fixer's
	// lifetime (monotone). A rising delta means repair signal is being
	// lost faster than batches consume it.
	Shed int
	// WALErrors and Degraded mirror OnlineStats: durability failures the
	// fixer absorbed, and whether the last one is still uncleared.
	WALErrors int
	Degraded  bool
}

// Signals returns the fixer's repair-trigger snapshot. The queue fields
// and the batch/durability fields are read under different leaf locks,
// so they may drift by one in-flight query relative to each other —
// trigger inputs, not invariants.
func (o *OnlineFixer) Signals() Signals {
	o.qmu.Lock()
	pending, shed := o.pending.count, o.shed
	o.qmu.Unlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	return Signals{
		Pending:   pending,
		BatchCap:  o.batchSize,
		Shed:      shed,
		WALErrors: o.walErrs,
		Degraded:  o.lastWALErr != nil,
	}
}

// Dim returns the index dimensionality. Dimensionality is immutable for
// the fixer's lifetime, so this never touches the lock — request
// validation must stay responsive even while a stalled write holds it.
func (o *OnlineFixer) Dim() int { return o.dim }

// Len returns the vector count from an atomic maintained by the mutation
// paths — no lock, so validation can consult it during a write stall.
// The count is monotone non-decreasing (deletes are tombstones), so a
// marginally stale read is harmless.
func (o *OnlineFixer) Len() int {
	return int(o.nvec.Load())
}

// Degraded reports whether the durability sink is in a failed state: a
// WAL append or snapshot returned an error and no snapshot has succeeded
// since. While degraded, mutations applied in memory may not survive a
// crash; the serving layer reflects this on /readyz. A successful
// snapshot (manual or on cadence) captures the full in-memory state and
// clears the condition. Always false without a WAL.
func (o *OnlineFixer) Degraded() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.lastWALErr != nil
}

// FixPending drains the recorded queries and repairs the graph with them.
// Preprocessing (approximate truth) runs under the read lock so searches
// continue; the graph mutation itself takes the write lock. It returns
// the fix report (zero-value when there was nothing to do). Durability
// errors are absorbed into the WAL counters; use FixPendingChecked to
// observe them.
func (o *OnlineFixer) FixPending() FixReport {
	rep, _ := o.FixPendingChecked()
	return rep
}

// FixPendingChecked is FixPending with the durability error surfaced: the
// graph repair itself either fully applies or panics, but journaling the
// batch can fail independently, and background loops want to know so they
// can back off and retry.
func (o *OnlineFixer) FixPendingChecked() (FixReport, error) {
	return o.FixPendingLimitChecked(0)
}

// FixPendingLimitChecked is FixPendingChecked with a batch cap: at most
// max recorded queries are drained (oldest first — they are the ones the
// full buffer would shed next) and the rest stay pending for a later
// batch. max <= 0 drains everything. This is the graceful-degradation
// path of the adaptive repair controller: under admission saturation it
// shrinks batches instead of stopping repair entirely.
func (o *OnlineFixer) FixPendingLimitChecked(max int) (FixReport, error) {
	o.qmu.Lock()
	rows := o.pending.count
	if rows == 0 {
		o.qmu.Unlock()
		return FixReport{}, nil
	}
	if max > 0 && max < rows {
		rows = max
	}
	batch := o.pending.take(rows)
	o.qmu.Unlock()

	// Approximate truth under the read lock (concurrent with searches).
	// With PQ enabled it runs through the fused searchers too — fixing on
	// the compressed graph instead of faulting the full working set in.
	o.mu.RLock()
	truth := o.approxTruthLocked(batch, o.truthK, o.prepEF)
	o.mu.RUnlock()

	o.pmu.Lock()
	defer o.pmu.Unlock()
	o.mu.Lock()
	if o.wal != nil {
		o.ix.G.TrackExtraMutations()
	}
	rep := o.ix.Fix(batch, truth)
	o.totalFixed += batch.Rows()
	o.totalBatches++
	// Pooled searchers stay: a fix batch rewires edges, and a searcher
	// holds nothing edge-derived between searches.
	var err error
	snap := false
	if o.wal != nil {
		dirty := o.ix.G.TakeExtraMutations()
		if len(dirty) > 0 {
			updates := make([]graph.ExtraUpdate, len(dirty))
			for i, u := range dirty {
				updates[i] = graph.ExtraUpdate{U: u, Edges: o.ix.G.ExtraNeighbors(u)}
			}
			err = o.wal.LogFixEdges(updates)
			o.noteWALErr(err)
		}
		o.sinceBatches++
		snap = o.wantSnapshotLocked()
	}
	o.mu.Unlock()
	o.metrics.observeFix(rep)
	if snap {
		o.snapshotHoldingPmu() // failure already recorded in the counters
	}
	return rep, err
}

// Insert adds a base vector (write lock) and journals it, absorbing any
// durability error into the WAL counters. Use InsertChecked to observe
// the error.
func (o *OnlineFixer) Insert(v []float32) uint32 {
	id, _ := o.InsertChecked(v)
	return id
}

// InsertChecked is Insert with the durability error surfaced: a non-nil
// error means the vector is live in memory but its journal append failed,
// so it may not survive a crash until the next successful snapshot.
func (o *OnlineFixer) InsertChecked(v []float32) (uint32, error) {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	o.mu.Lock()
	id := o.ix.Insert(v)
	o.nvec.Store(int64(o.ix.G.Len()))
	// Encode against the frozen codebooks (training never reruns online)
	// so the compressed view stays in step with the graph row it mirrors.
	o.pqAppendLocked(v)
	// Pooled searchers stay: each grows its visited set to the graph's
	// size (geometrically) on its next search.
	var err error
	snap := false
	if o.wal != nil {
		err = o.wal.LogInsert(v)
		o.noteWALErr(err)
		o.sinceMuts++
		snap = o.wantSnapshotLocked()
	}
	o.mu.Unlock()
	if snap {
		o.snapshotHoldingPmu() // failure already recorded in the counters
	}
	return id, err
}

// Delete tombstones a vector (write lock) and journals it, absorbing any
// durability error. It reports false for both an already-deleted and an
// out-of-range id; use DeleteChecked to tell them apart.
func (o *OnlineFixer) Delete(id uint32) bool {
	changed, _ := o.DeleteChecked(id)
	return changed
}

// DeleteChecked is Delete with failures surfaced. The range check runs
// under the fixer's write lock (handlers must not read graph bounds
// unlocked): an id the index never assigned returns ErrUnknownID. Any
// other non-nil error is a journal-append failure — the tombstone is live
// in memory but may not survive a crash until the next successful
// snapshot.
func (o *OnlineFixer) DeleteChecked(id uint32) (bool, error) {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	o.mu.Lock()
	if int(id) >= o.ix.G.Len() {
		o.mu.Unlock()
		return false, ErrUnknownID
	}
	changed := o.ix.Delete(id)
	var err error
	snap := false
	if changed && o.wal != nil {
		err = o.wal.LogDelete(id)
		o.noteWALErr(err)
		o.sinceMuts++
		snap = o.wantSnapshotLocked()
	}
	o.mu.Unlock()
	if snap {
		o.snapshotHoldingPmu() // failure already recorded in the counters
	}
	return changed, err
}

// PurgeAndRepair unlinks tombstones and repairs holes (write lock). A
// purge rewrites base edges, which the op log does not record, so it is
// followed by a barrier snapshot when a WAL is configured; if that
// snapshot fails, recovery falls back to the pre-purge (tombstoned but
// consistent) state.
func (o *OnlineFixer) PurgeAndRepair(k, efTruth int) PurgeReport {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	o.mu.Lock()
	rep := o.ix.PurgeAndRepair(k, efTruth)
	o.nvec.Store(int64(o.ix.G.Len()))
	// Purge keeps row ids stable (no compaction), so the PQ codes and the
	// pooled searchers stay valid.
	o.mu.Unlock()
	if o.wal != nil && rep.Purged > 0 {
		o.snapshotHoldingPmu()
	}
	return rep
}

// Snapshot forces a durable snapshot of the current graph through the
// WAL (POST /v1/snapshot and graceful shutdown use this). It returns
// ErrNoWAL when the fixer has no durability sink. Searches keep serving
// while the snapshot serializes and fsyncs; only mutations wait for it.
func (o *OnlineFixer) Snapshot() error {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	return o.snapshotHoldingPmu()
}

// snapshotHoldingPmu persists the graph through the WAL. The caller must
// hold pmu (and not mu): pmu excludes every mutation path, so the graph
// is quiescent for serialization while concurrent searches — pure reads
// under mu.RLock — keep flowing. On success the durability-degraded
// condition clears: the snapshot captured the complete in-memory state,
// including any mutations whose journal appends had failed.
func (o *OnlineFixer) snapshotHoldingPmu() error {
	if o.wal == nil {
		return ErrNoWAL
	}
	// With PQ serving live and a sidecar-capable WAL, the quantizer
	// persists with the graph under one generation; recovery then replays
	// instead of retraining. pmu makes both quiescent here.
	var err error
	if pw, ok := o.wal.(PQWAL); ok && o.pqs != nil {
		err = pw.SnapshotPQ(o.ix.G, o.pqs.q)
	} else {
		err = o.wal.Snapshot(o.ix.G)
	}
	o.mu.Lock()
	if err != nil {
		o.walErrs++
		o.lastWALErr = err
	} else {
		o.sinceBatches, o.sinceMuts = 0, 0
		o.lastWALErr = nil
	}
	o.mu.Unlock()
	return err
}

// wantSnapshotLocked reports whether the configured cadence calls for a
// snapshot. Caller holds mu; the snapshot itself must run after releasing
// it (see snapshotHoldingPmu).
func (o *OnlineFixer) wantSnapshotLocked() bool {
	if o.snapSuspended.Load() {
		return false
	}
	return (o.snapBatches > 0 && o.sinceBatches >= o.snapBatches) ||
		(o.snapMuts > 0 && o.sinceMuts >= o.snapMuts)
}

// SuspendAutoSnapshots pauses (true) or resumes (false) the automatic
// snapshot cadence. Counters keep accumulating while suspended, so the
// next mutation after resuming triggers any overdue snapshot. Explicit
// Snapshot calls are never blocked.
func (o *OnlineFixer) SuspendAutoSnapshots(v bool) {
	o.snapSuspended.Store(v)
}

func (o *OnlineFixer) noteWALErr(err error) {
	if err != nil {
		o.walErrs++
		o.lastWALErr = err
	}
}

// BackoffDelay returns the retry delay after `fails` consecutive
// failures: base doubling per failure, capped at 32×base and one minute,
// with ±25% jitter driven by u in [0,1) so a fleet of retriers does not
// thundering-herd a recovering disk.
func BackoffDelay(base time.Duration, fails int, u float64) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	shift := fails - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 5 {
		shift = 5
	}
	d := base << uint(shift)
	if d > time.Minute {
		d = time.Minute
	}
	jitter := 0.75 + 0.5*u
	return time.Duration(float64(d) * jitter)
}

// Index exposes the wrapped index for read-only inspection. Callers must
// not mutate it while the fixer is live.
func (o *OnlineFixer) Index() *Index { return o.ix }

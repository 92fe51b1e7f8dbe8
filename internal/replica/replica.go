// Package replica keeps a read-only follower of one shard: a -replica-of
// server's read path, and the stream a live reshard's children catch up
// from.
//
// A Replica bootstraps from the leader's newest checksummed snapshot,
// then tails the leader's op-log WAL, applying inserts, deletes, and
// fix-batch edge updates through the same deterministic replay primitive
// crash recovery uses (shard.ApplyOp) — so a caught-up replica's graph is
// bit-identical to what the leader persisted, with no second fixer run
// and no divergent repair decisions (see DESIGN.md).
//
// The follower is pull-based and stateless on the wire: every tail poll
// re-opens the WAL at the byte offset just past the last record it
// applied. A torn record at the stream's end is the normal shape of a log
// still being written (or a transfer cut mid-ship) and simply ends the
// poll; the next poll resumes at the same boundary. When the leader seals
// a new generation its old WAL disappears, the source answers
// ErrGenerationGone, and the replica resyncs: it builds a fresh index
// from the new snapshot off to the side and swaps it in atomically, so
// searches always see either the old consistent state or the new one —
// never a mix.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/persist"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
	"ngfix/internal/xrand"
)

// Config parameterizes a Replica.
type Config struct {
	// Shard is the shard index this replica follows (labels logs and
	// metrics; the Source already points at one shard's state).
	Shard int
	// Opts are the index options used when materializing snapshots. They
	// must match the leader's so replayed inserts make identical edge
	// choices. PreserveEntry is forced: the replica searches from the
	// entry point the snapshot was sealed with.
	Opts core.Options
	// Poll is the WAL tail cadence when the previous poll found no new
	// records (default 100ms). Polls that found records loop immediately.
	Poll time.Duration
	// Backoff is the base retry delay after a source error (default
	// 500ms), doubling per consecutive failure with jitter.
	Backoff time.Duration
	// LagMax, when positive, is the most WAL bytes the replica may be
	// behind and still report Ready. Zero means any bootstrapped replica
	// is ready — staleness costs freshness, not availability.
	LagMax int64
	// Logf (nil to discard) receives bootstrap/resync/error lines.
	Logf func(format string, args ...interface{})

	// Filter, when set, turns this replica into a *splitting child*: of
	// the parent's rows, only parent-local ids the filter keeps are
	// materialized, re-numbered to the returned child-local id. The
	// filter must keep a dense prefix-free pattern whose kept ids
	// translate to exactly 0,1,2,… in parent-local order (the Router's
	// SplitFilter guarantees this), because the child is rebuilt by plain
	// insertion. Fix-edge records are skipped under a filter — parent
	// edge ids are meaningless in the child's id space; the child's own
	// fixers rebuild its extra edges after cutover.
	Filter func(parentLocal uint32) (childLocal uint32, ok bool)
	// Journal, when set, persists the child as it builds: the filtered
	// bootstrap seals a snapshot, and every applied (translated) tail op
	// is appended — so the child's store replays to exactly the served
	// index through the same ApplyOp recovery path the leader uses. A
	// journal failure flips the replica back to not-ready and the next
	// loop re-bootstraps (the fresh snapshot seals a new generation,
	// superseding the torn log).
	Journal Journal
	// Throttle, when set, is acquired around each chunk of streamed or
	// tailed work (reshard wires admission costing here so a split can
	// never starve search). The returned release is called when the
	// chunk's work is done.
	Throttle func(rows int) (release func())
}

// Journal persists a splitting child's state; *persist.Store satisfies
// it.
type Journal interface {
	Snapshot(g *graph.Graph) error
	Append(op persist.Op) error
}

// Replica follows one shard. Create with New, drive with Run, read with
// SearchCtx. All methods are safe for concurrent use.
type Replica struct {
	src Source
	cfg Config
	// shards is the size of the Set this replica serves in (set by NewSet
	// before Run; 0 outside a set). A leader reporting a different count
	// would make this replica's local ids map to the wrong global ids.
	shards int

	mu        sync.RWMutex // guards ix and searchers; Run swaps, readers search
	ix        *core.Index
	searchers sync.Pool

	// Position: the generation the served index came from and how much
	// of its WAL has been applied.
	gen            atomic.Uint64
	appliedBytes   atomic.Int64
	appliedRecords atomic.Int64

	// Last observed leader position, for lag gauges.
	leaderGen     atomic.Uint64
	leaderBytes   atomic.Int64
	leaderRecords atomic.Int64

	ready    atomic.Bool // first bootstrap completed
	tailErrs atomic.Int64
	resyncs  atomic.Int64
	applied  atomic.Int64 // records applied over the replica's lifetime

	// Filtered-child state: parentLen counts the parent rows seen so far
	// (snapshot rows + tailed inserts), which is the parent-local id the
	// next tailed insert will get; kept/discarded count tail records by
	// the filter's verdict.
	parentLen atomic.Int64
	kept      atomic.Int64
	discarded atomic.Int64

	errMu   sync.Mutex
	lastErr string
}

// New builds a replica over src. Run must be started for it to make
// progress.
func New(src Source, cfg Config) *Replica {
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	cfg.Opts.PreserveEntry = true
	return &Replica{src: src, cfg: cfg}
}

// Run drives bootstrap and tailing until ctx ends. Source errors are
// retried with exponential backoff; they never abort the loop, because a
// replica that stops retrying silently stops following its leader.
func (r *Replica) Run(ctx context.Context) {
	rng := xrand.NewOffset(int64(r.cfg.Shard))
	fails := 0
	for ctx.Err() == nil {
		var err error
		if !r.ready.Load() {
			err = r.bootstrap()
		} else {
			var progressed bool
			progressed, err = r.tailOnce()
			if err == nil && progressed {
				fails = 0
				continue // drain hot: more records may already be waiting
			}
		}
		switch {
		case err == nil:
			fails = 0
			sleepCtx(ctx, r.cfg.Poll)
		case errors.Is(err, persist.ErrGenerationGone):
			// The generation we were tailing is gone: resync from the
			// leader's current snapshot. The old index keeps serving until
			// the swap, so the gap costs freshness only.
			r.resyncs.Add(1)
			r.cfg.Logf("shard %d replica: generation %d gone, resyncing from current snapshot", r.cfg.Shard, r.gen.Load())
			if berr := r.bootstrap(); berr != nil {
				r.noteErr(berr)
				fails++
				sleepCtx(ctx, core.BackoffDelay(r.cfg.Backoff, fails, rng.Float64()))
			} else {
				fails = 0
			}
		default:
			r.noteErr(err)
			fails++
			sleepCtx(ctx, core.BackoffDelay(r.cfg.Backoff, fails, rng.Float64()))
		}
	}
}

func (r *Replica) noteErr(err error) {
	r.tailErrs.Add(1)
	r.errMu.Lock()
	r.lastErr = err.Error()
	r.errMu.Unlock()
	r.cfg.Logf("shard %d replica: %v", r.cfg.Shard, err)
}

// bootstrap ships the leader's newest snapshot and swaps it in whole.
// The new index is built entirely off to the side; until the final swap
// the previous index (if any) serves unchanged.
func (r *Replica) bootstrap() error {
	if err := r.observeLeader(); err != nil {
		return err
	}
	gen, rc, err := r.src.Snapshot()
	if err != nil {
		return fmt.Errorf("ship snapshot: %w", err)
	}
	g, err := persist.DecodeSnapshot(rc)
	rc.Close()
	if err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	var ix *core.Index
	if r.cfg.Filter != nil {
		ix, err = r.buildFiltered(g)
		if err != nil {
			return err
		}
	} else {
		ix = core.New(g, r.cfg.Opts)
	}

	r.mu.Lock()
	r.ix = ix
	r.searchers = sync.Pool{New: func() interface{} { return graph.NewSearcher(ix.G) }}
	r.gen.Store(gen)
	r.appliedBytes.Store(0)
	r.appliedRecords.Store(0)
	r.mu.Unlock()
	r.ready.Store(true)
	r.cfg.Logf("shard %d replica: bootstrapped at generation %d (%d parent vectors)", r.cfg.Shard, gen, g.Len())
	return nil
}

// buildFiltered materializes the child index from a parent snapshot:
// kept rows are re-inserted in parent-local order (the filter's density
// guarantee means the child's own insert sequence assigns exactly the
// filter's child-local ids), kept tombstones are inserted then deleted so
// the id alignment survives, and — when a journal is wired — the result
// is sealed as the child's first snapshot generation.
func (r *Replica) buildFiltered(pg *graph.Graph) (*core.Index, error) {
	const chunk = 256
	cg := graph.New(vec.NewMatrix(0, pg.Dim()), pg.Metric)
	ix := core.New(cg, r.cfg.Opts)
	for lo := 0; lo < pg.Len(); lo += chunk {
		hi := lo + chunk
		if hi > pg.Len() {
			hi = pg.Len()
		}
		release := r.throttle(hi - lo)
		for pl := lo; pl < hi; pl++ {
			cl, ok := r.cfg.Filter(uint32(pl))
			if !ok {
				r.discarded.Add(1)
				continue
			}
			r.kept.Add(1)
			got := ix.Insert(pg.Vectors.Row(pl))
			if got != cl {
				release()
				return nil, fmt.Errorf("shard %d split: parent-local %d materialized as child-local %d, filter says %d (filter not dense?)", r.cfg.Shard, pl, got, cl)
			}
			if pg.IsDeleted(uint32(pl)) {
				ix.Delete(cl)
			}
		}
		release()
	}
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.Snapshot(ix.G); err != nil {
			return nil, fmt.Errorf("seal child snapshot: %w", err)
		}
	}
	r.parentLen.Store(int64(pg.Len()))
	return ix, nil
}

// observeLeader records the leader's position for the lag gauges (best
// effort: a failed status poll leaves the last one) and refuses a leader
// whose shard count differs from this replica's set — the set's router
// would turn the leader's shard-local ids into wrong global ids, answers
// that look valid and are not. A count of 0 means the source cannot tell
// (stores and directories), and passes.
func (r *Replica) observeLeader() error {
	st, err := r.src.Status()
	if err != nil {
		return nil
	}
	if st.Shards != 0 && r.shards != 0 && st.Shards != r.shards {
		r.ready.Store(false) // stop serving until a matching bootstrap
		return fmt.Errorf("leader has %d shards but this replica set follows %d; refusing to serve", st.Shards, r.shards)
	}
	r.leaderGen.Store(st.Generation)
	r.leaderBytes.Store(st.WALBytes)
	r.leaderRecords.Store(int64(st.WALRecords))
	return nil
}

// throttle acquires the configured admission throttle (identity when
// unset).
func (r *Replica) throttle(rows int) (release func()) {
	if r.cfg.Throttle == nil {
		return func() {}
	}
	return r.cfg.Throttle(rows)
}

// tailOnce polls the leader's position, then applies every intact record
// past the applied offset. It reports whether any record was applied.
func (r *Replica) tailOnce() (bool, error) {
	if err := r.observeLeader(); err != nil {
		return false, err
	}
	gen := r.gen.Load()
	off := r.appliedBytes.Load()
	rc, err := r.src.WAL(gen, off)
	if err != nil {
		return false, err
	}
	defer rc.Close()
	sc := persist.NewLogScanner(rc, off)
	n := 0
	release := r.throttle(1)
	defer release()
	for sc.Next() {
		op := sc.Op()
		apply := true
		if r.cfg.Filter != nil {
			op, apply = r.translateOp(op)
		}
		if apply {
			if r.cfg.Journal != nil {
				if jerr := r.cfg.Journal.Append(op); jerr != nil {
					// The child's log is now behind its served index; the
					// only consistent recovery is a fresh bootstrap, whose
					// snapshot seals a new generation past the torn log.
					r.ready.Store(false)
					return n > 0, fmt.Errorf("journal op at offset %d: %w", sc.Offset(), jerr)
				}
			}
			r.mu.Lock()
			err := shard.ApplyOp(r.ix, op)
			r.mu.Unlock()
			if err != nil {
				// A record that checksummed but cannot apply means this replica
				// diverged from the leader's sequence; only a resync recovers.
				if r.cfg.Journal != nil {
					r.ready.Store(false)
				}
				return n > 0, fmt.Errorf("apply op at offset %d: %w", sc.Offset(), err)
			}
		}
		r.appliedBytes.Store(sc.Offset())
		r.appliedRecords.Add(1)
		r.applied.Add(1)
		n++
	}
	if sc.Err() != nil {
		return n > 0, fmt.Errorf("scan WAL: %w", sc.Err())
	}
	return n > 0, nil
}

// translateOp maps a parent op into the child's id space under the
// configured filter. apply=false means the record belongs to the other
// child (or is a fix-edge record, whose parent edge ids are meaningless
// here) and only advances the applied position.
func (r *Replica) translateOp(op persist.Op) (persist.Op, bool) {
	switch op.Kind {
	case persist.OpInsert:
		// An insert's parent-local id is positional: the number of parent
		// rows seen before it. The child op carries no id — replaying it
		// inserts at the child's next id, which the density invariant
		// guarantees is the filter's translation.
		pl := uint32(r.parentLen.Add(1) - 1)
		if _, ok := r.cfg.Filter(pl); !ok {
			r.discarded.Add(1)
			return op, false
		}
		r.kept.Add(1)
		return persist.Op{Kind: persist.OpInsert, Vector: op.Vector}, true
	case persist.OpDelete:
		cl, ok := r.cfg.Filter(op.ID)
		if !ok {
			r.discarded.Add(1)
			return op, false
		}
		r.kept.Add(1)
		return persist.Op{Kind: persist.OpDelete, ID: cl}, true
	default:
		// Fix-edge batches repair the parent's adjacency; the child
		// rebuilds its own after cutover.
		r.discarded.Add(1)
		return op, false
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// SearchCtx serves one read-only query from the replica's current index.
// ok is false when the replica has not bootstrapped yet. Queries are
// never recorded for fixing — repair decisions belong to the leader.
func (r *Replica) SearchCtx(ctx context.Context, q []float32, k, ef int) ([]graph.Result, graph.Stats, bool) {
	if !r.ready.Load() {
		return nil, graph.Stats{}, false
	}
	r.mu.RLock()
	s := r.searchers.Get().(*graph.Searcher)
	res, st := s.SearchFromCtx(ctx, q, k, ef, r.ix.G.EntryPoint)
	r.searchers.Put(s)
	r.mu.RUnlock()
	return res, st, true
}

// Ready reports whether the replica can serve its shard: it has
// bootstrapped, and (when LagMax is set) is within the configured lag.
func (r *Replica) Ready() bool {
	if !r.ready.Load() {
		return false
	}
	if r.cfg.LagMax > 0 {
		if lag := r.Lag(); lag.Bytes > r.cfg.LagMax || lag.Generations > 0 {
			return false
		}
	}
	return true
}

// Lag measures how far behind the leader's last observed position this
// replica is. Bytes and Records compare WAL positions and are only
// meaningful within a generation; a positive Generations means the
// replica has not yet resynced to the leader's latest snapshot (its WAL
// counters then measure against a log it is no longer reading).
type Lag struct {
	Generations uint64 `json:"generations"`
	Bytes       int64  `json:"bytes"`
	Records     int64  `json:"records"`
}

// Lag returns the replica's current lag against the leader.
func (r *Replica) Lag() Lag {
	var l Lag
	lg, g := r.leaderGen.Load(), r.gen.Load()
	if lg > g {
		l.Generations = lg - g
	}
	if l.Generations == 0 {
		if b := r.leaderBytes.Load() - r.appliedBytes.Load(); b > 0 {
			l.Bytes = b
		}
		if n := r.leaderRecords.Load() - r.appliedRecords.Load(); n > 0 {
			l.Records = n
		}
	} else {
		// Across a generation gap the leader's whole current log is
		// unapplied from the replica's point of view.
		l.Bytes = r.leaderBytes.Load()
		l.Records = r.leaderRecords.Load()
	}
	return l
}

// Status is a point-in-time summary for /v1/stats and logs.
type Status struct {
	Shard          int    `json:"shard"`
	Ready          bool   `json:"ready"`
	Generation     uint64 `json:"generation"`
	AppliedRecords int64  `json:"appliedRecords"`
	AppliedBytes   int64  `json:"appliedBytes"`
	Lag            Lag    `json:"lag"`
	TailErrors     int64  `json:"tailErrors,omitempty"`
	Resyncs        int64  `json:"resyncs,omitempty"`
	LastError      string `json:"lastError,omitempty"`
	// Kept/Discarded count rows and records by a split filter's verdict,
	// across bootstrap and tail (zero on ordinary replicas).
	Kept      int64 `json:"kept,omitempty"`
	Discarded int64 `json:"discarded,omitempty"`
}

// Status returns the replica's current state.
func (r *Replica) Status() Status {
	r.errMu.Lock()
	lastErr := r.lastErr
	r.errMu.Unlock()
	return Status{
		Shard:          r.cfg.Shard,
		Ready:          r.Ready(),
		Generation:     r.gen.Load(),
		AppliedRecords: r.appliedRecords.Load(),
		AppliedBytes:   r.appliedBytes.Load(),
		Lag:            r.Lag(),
		TailErrors:     r.tailErrs.Load(),
		Resyncs:        r.resyncs.Load(),
		LastError:      lastErr,
		Kept:           r.kept.Load(),
		Discarded:      r.discarded.Load(),
	}
}

// DetachIndex hands the built index to the caller — the reshard cutover
// takes a caught-up child's index and promotes it to a serving shard.
// Call only after Run has stopped; the replica must not apply further
// ops to a detached index.
func (r *Replica) DetachIndex() *core.Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ix
}

// Generation returns the snapshot generation the served index came from
// (0 before bootstrap).
func (r *Replica) Generation() uint64 { return r.gen.Load() }

// Dim returns the served index's dimensionality (0 before bootstrap) —
// what a follower server validates query vectors against.
func (r *Replica) Dim() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.ix == nil {
		return 0
	}
	return r.ix.G.Dim()
}

// Len returns the served index's vector count (0 while the replica
// cannot serve).
func (r *Replica) Len() int {
	if !r.ready.Load() {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ix.G.Len()
}

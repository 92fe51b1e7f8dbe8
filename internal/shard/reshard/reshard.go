// Package reshard coordinates a live N→2N shard split: each parent
// shard's state streams through two filtered replica children (child c
// keeps the ids that route to c under the doubled router) while the
// parent keeps serving, then the topology cuts over atomically through
// persist's two-phase MANIFEST commit.
//
// The phases, and what can interrupt each:
//
//  1. intent    — persist.BeginReshard publishes the RESHARD record. A
//     crash here aborts on recovery (nothing staged yet).
//  2. streaming — 2N filtered replicas bootstrap from the parents'
//     snapshots and journal into the staged epoch-<e>/shard-<c> stores.
//     The parents' automatic snapshot cadence is suspended so a
//     generation bump cannot force every child into resync; explicit
//     snapshots (an operator's /v1/snapshot, a purge barrier) still work
//     and merely cost one resync. All child work is costed through the
//     admission hook, so a split cannot starve search.
//  3. tailing   — children are bootstrapped and within CatchupBytes of
//     their parents' WALs; they keep applying translated records as the
//     parents serve mutations.
//  4. cutover   — mutations pause (searches never do), the children
//     drain the last WAL bytes, PQ sidecars are re-encoded per child
//     under the frozen codebooks, the new serving stack is assembled,
//     and persist.CommitReshard flips the MANIFEST. A drain that cannot
//     converge within CutoverTimeout resumes mutations and retries.
//  5. done      — the new stack is installed, the retired group stays
//     paused forever (stragglers retry onto the new one), and
//     persist.FinishReshard reclaims the old topology's files.
//
// A crash anywhere is resolved by persist.ResolveLayout on the next
// start: strictly the old or the new topology, never a mix.
package reshard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/persist"
	"ngfix/internal/replica"
	"ngfix/internal/shard"
)

// Config parameterizes a Resharder. Root/FS/Stores/Layout describe the
// parent topology; the hooks wire the coordinator into a serving process
// (all optional — a nil Group runs the offline CLI shape, where the
// parent WALs are static and there is nothing to pause or install).
type Config struct {
	Root   string
	FS     persist.FS
	Stores []*persist.Store // parent stores, one per shard
	Layout persist.Layout   // current topology (persist.ResolveLayout)

	// Opts are the index options children build with — the same options
	// the server would recover with, so a child's journal replays to its
	// served graph exactly.
	Opts core.Options
	// StoreOpts open the staged child stores (FS/NoSync should match the
	// parents').
	StoreOpts persist.Options

	// Group, when non-nil, is the live serving group over Stores; the
	// cutover pauses its mutations and the parents' auto-snapshots are
	// suspended for the duration. Nil means offline: no serving process
	// owns the stores.
	Group *shard.Group
	// Acquire, when non-nil, is admission.TryAcquire: every chunk of
	// child streaming/tailing work buys one unit first and waits its
	// turn when the server is saturated.
	Acquire func(cost int) (release func(), ok bool)
	// Quiesce, when non-nil, stops concurrent maintenance (the repair
	// fleet) for the cutover window; the returned resume is called after
	// the cutover commits or the attempt fails.
	Quiesce func() (resume func())
	// Assemble, when non-nil, builds the post-split serving stack from
	// the caught-up child stores and indexes (fixers, metrics, PQ attach,
	// group, repair fleet) and returns the install that swaps it into the
	// serving path. Assemble runs before the MANIFEST commit, so its
	// failure aborts the reshard; install runs after it, and the moment
	// install returns, requests land on the new topology. Required when
	// Group is set.
	Assemble func(stores []*persist.Store, ixs []*core.Index) (install func(), err error)

	// CatchupBytes is the most WAL lag (per parent) tolerated before
	// attempting cutover (default 4096).
	CatchupBytes int64
	// CutoverTimeout bounds one drain attempt (default 5s).
	CutoverTimeout time.Duration
	// CutoverRetries is how many failed drains abort the reshard
	// (default 5).
	CutoverRetries int
	// Poll is the child tail/monitor cadence (default 20ms).
	Poll time.Duration
	// Logf (nil to discard) receives phase transitions and errors.
	Logf func(format string, args ...interface{})
}

// States of a reshard, as reported in Progress.State.
const (
	StateIdle      = "idle"
	StateStreaming = "streaming"
	StateTailing   = "tailing"
	StateCutover   = "cutover"
	StateDone      = "done"
	StateFailed    = "failed"
)

// Progress is a point-in-time view of a reshard for /v1/stats and the
// ngfix_reshard_* metric families. Counters are progress gauges: exact
// per child, snapshotted one after another.
type Progress struct {
	Active          bool   `json:"active"`
	State           string `json:"state"`
	FromShards      int    `json:"fromShards"`
	ToShards        int    `json:"toShards"`
	RowsStreamed    int64  `json:"rowsStreamed"`
	OpsTailed       int64  `json:"opsTailed"`
	OpsDiscarded    int64  `json:"opsDiscarded"`
	Resyncs         int64  `json:"resyncs,omitempty"`
	CutoverAttempts int64  `json:"cutoverAttempts"`
	CutoverMillis   int64  `json:"cutoverMillis,omitempty"`
	Err             string `json:"err,omitempty"`
}

// errCrashInjected simulates process death at a test seam: Run returns
// without any cleanup, exactly as if the process had been killed.
var errCrashInjected = errors.New("reshard: crash injected")

// Resharder drives one N→2N split. One Run per Resharder.
type Resharder struct {
	cfg Config

	stateMu sync.Mutex
	state   string
	errStr  string

	kids            atomic.Value // []*replica.Replica, set once streaming starts
	cutoverAttempts atomic.Int64
	cutoverMillis   atomic.Int64

	// crashAt, set by tests before Run, names the seam to die at:
	// "intent", "stream", "tail", "precommit", "postcommit".
	crashAt string
}

// New builds a Resharder. Run starts the work.
func New(cfg Config) (*Resharder, error) {
	if cfg.Layout.Shards < 1 || len(cfg.Stores) != cfg.Layout.Shards {
		return nil, fmt.Errorf("reshard: %d stores for %d shards", len(cfg.Stores), cfg.Layout.Shards)
	}
	if cfg.Group != nil && cfg.Assemble == nil {
		return nil, errors.New("reshard: online reshard (Group set) requires Assemble")
	}
	if cfg.CatchupBytes <= 0 {
		cfg.CatchupBytes = 4096
	}
	if cfg.CutoverTimeout <= 0 {
		cfg.CutoverTimeout = 5 * time.Second
	}
	if cfg.CutoverRetries <= 0 {
		cfg.CutoverRetries = 5
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return &Resharder{cfg: cfg, state: StateIdle}, nil
}

func (r *Resharder) setState(s string) {
	r.stateMu.Lock()
	r.state = s
	r.stateMu.Unlock()
	r.cfg.Logf("reshard: %s", s)
}

func (r *Resharder) fail(err error) error {
	r.stateMu.Lock()
	r.state = StateFailed
	r.errStr = err.Error()
	r.stateMu.Unlock()
	r.cfg.Logf("reshard: failed: %v", err)
	return err
}

// Progress returns the current view. Safe at any time, from any
// goroutine.
func (r *Resharder) Progress() Progress {
	r.stateMu.Lock()
	state, errStr := r.state, r.errStr
	r.stateMu.Unlock()
	p := Progress{
		State:           state,
		Err:             errStr,
		FromShards:      r.cfg.Layout.Shards,
		ToShards:        2 * r.cfg.Layout.Shards,
		CutoverAttempts: r.cutoverAttempts.Load(),
		CutoverMillis:   r.cutoverMillis.Load(),
	}
	p.Active = state == StateStreaming || state == StateTailing || state == StateCutover
	if kids, ok := r.kids.Load().([]*replica.Replica); ok {
		for _, kid := range kids {
			st := kid.Status()
			p.RowsStreamed += st.Kept
			p.OpsTailed += st.AppliedRecords
			p.OpsDiscarded += st.Discarded
			p.Resyncs += st.Resyncs
		}
	}
	return p
}

func (r *Resharder) crash(stage string) bool { return r.crashAt == stage }

// throttle buys one admission unit per chunk of child work, waiting out
// saturation — reshard streaming yields to live traffic, it never
// competes with it.
func (r *Resharder) throttle(rows int) func() {
	if r.cfg.Acquire == nil {
		return func() {}
	}
	for {
		if release, ok := r.cfg.Acquire(1); ok {
			return release
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Run drives the reshard to completion (or failure). The returned error
// is also recorded in Progress. ctx cancellation aborts cleanly: the
// staged side is reclaimed and the old topology keeps serving.
func (r *Resharder) Run(ctx context.Context) error {
	n := r.cfg.Layout.Shards
	in, err := persist.BeginReshard(r.cfg.FS, r.cfg.Root, r.cfg.Layout)
	if err != nil {
		return r.fail(err)
	}
	if r.crash("intent") {
		return r.fail(errCrashInjected)
	}

	// From here to the MANIFEST commit, every failure aborts: staged
	// children are deleted and the intent dropped, leaving the parent
	// topology exactly as it was.
	abort := func(cause error) error {
		if aerr := persist.AbortReshard(r.cfg.FS, r.cfg.Root, in); aerr != nil {
			r.cfg.Logf("reshard: abort cleanup: %v", aerr)
		}
		return r.fail(cause)
	}

	childStores, err := persist.OpenShardedAt(r.cfg.Root, in.ToShards, in.ToEpoch, r.cfg.StoreOpts)
	if err != nil {
		return abort(fmt.Errorf("open staged children: %w", err))
	}
	closeChildren := func() {
		for _, st := range childStores {
			st.Close()
		}
	}

	// Freeze the parents' snapshot cadence: a generation bump mid-stream
	// forces every child of that parent into a full resync. Explicit
	// snapshots still work; they just cost that resync.
	if r.cfg.Group != nil {
		for p := 0; p < n; p++ {
			r.cfg.Group.Fixer(p).SuspendAutoSnapshots(true)
		}
		defer func() {
			for p := 0; p < n; p++ {
				r.cfg.Group.Fixer(p).SuspendAutoSnapshots(false)
			}
		}()
	}

	r.setState(StateStreaming)
	router := shard.NewRouter(n)
	kids := make([]*replica.Replica, in.ToShards)
	for c := range kids {
		p := c % n
		c := c
		kids[c] = replica.New(replica.StoreSource{St: r.cfg.Stores[p]}, replica.Config{
			Shard:    c,
			Opts:     r.cfg.Opts,
			Poll:     r.cfg.Poll,
			Filter:   router.SplitFilter(p, c),
			Journal:  childStores[c],
			Throttle: r.throttle,
			Logf: func(format string, args ...interface{}) {
				r.cfg.Logf("child %d: "+format, append([]interface{}{c}, args...)...)
			},
		})
	}
	r.kids.Store(kids)
	kctx, kcancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, kid := range kids {
		wg.Add(1)
		go func(kid *replica.Replica) {
			defer wg.Done()
			kid.Run(kctx)
		}(kid)
	}
	stopKids := func() {
		kcancel()
		wg.Wait()
	}

	if r.crash("stream") {
		stopKids() // goroutines die with the process; on-disk state is identical
		return r.fail(errCrashInjected)
	}

	// Monitor until every child is bootstrapped and within CatchupBytes
	// of its parent's WAL.
	for {
		if ctx.Err() != nil {
			stopKids()
			closeChildren()
			return abort(ctx.Err())
		}
		if r.caughtUp(kids, n, r.cfg.CatchupBytes) {
			break
		}
		time.Sleep(r.cfg.Poll)
	}
	r.setState(StateTailing)
	if r.crash("tail") {
		stopKids()
		return r.fail(errCrashInjected)
	}

	// Cutover: pause mutations, drain the last bytes, commit. A drain
	// that cannot converge resumes serving and retries — the pause
	// window stays bounded no matter how it goes.
	var quiesceResume func()
	for attempt := 1; ; attempt++ {
		r.setState(StateCutover)
		r.cutoverAttempts.Add(1)
		if r.cfg.Quiesce != nil {
			quiesceResume = r.cfg.Quiesce()
		}
		if r.cfg.Group != nil {
			r.cfg.Group.PauseMutations()
		}
		if r.drained(kids, n) {
			break
		}
		if r.cfg.Group != nil {
			r.cfg.Group.ResumeMutations()
		}
		if quiesceResume != nil {
			quiesceResume()
			quiesceResume = nil
		}
		if attempt > r.cfg.CutoverRetries {
			stopKids()
			closeChildren()
			return abort(fmt.Errorf("cutover: children never drained within %v after %d attempts", r.cfg.CutoverTimeout, attempt))
		}
		r.cfg.Logf("reshard: drain attempt %d did not converge, resuming and retrying", attempt)
		r.setState(StateTailing)
		time.Sleep(r.cfg.Poll)
	}
	cutoverStart := time.Now()

	// resumeServing undoes the pause after a late failure, so an aborted
	// cutover leaves the old topology fully serving.
	resumeServing := func() {
		if r.cfg.Group != nil {
			r.cfg.Group.ResumeMutations()
		}
		if quiesceResume != nil {
			quiesceResume()
			quiesceResume = nil
		}
	}

	// Children have applied everything the parents will ever journal
	// (mutations are paused and repair quiesced; a fix-edge append from an
	// unquiesced repair batch would be skipped by the children anyway).
	// Freeze them and take their indexes.
	stopKids()
	ixs := make([]*core.Index, in.ToShards)
	for c, kid := range kids {
		ixs[c] = kid.DetachIndex()
		if ixs[c] == nil {
			resumeServing()
			closeChildren()
			return abort(fmt.Errorf("child %d lost its index before cutover", c))
		}
	}

	// PQ sidecars: re-encode each child's rows under the parent's frozen
	// codebooks and seal before the commit, so any post-commit recovery
	// finds codes row-stable with the child's graph.
	if err := r.sealPQ(childStores, ixs, n); err != nil {
		resumeServing()
		closeChildren()
		return abort(err)
	}

	var install func()
	if r.cfg.Assemble != nil {
		install, err = r.cfg.Assemble(childStores, ixs)
		if err != nil {
			resumeServing()
			closeChildren()
			return abort(fmt.Errorf("assemble post-split group: %w", err))
		}
	}

	if r.crash("precommit") {
		return r.fail(errCrashInjected)
	}
	if err := persist.CommitReshard(r.cfg.FS, r.cfg.Root, in); err != nil {
		resumeServing()
		closeChildren()
		return abort(fmt.Errorf("commit: %w", err))
	}
	if r.crash("postcommit") {
		return r.fail(errCrashInjected)
	}

	// Committed. The old group is retired paused — mutation stragglers
	// that raced the swap get ErrResharding and retry onto the new
	// group. install flips the serving path; then maintenance resumes on
	// the new topology.
	if install != nil {
		install()
	}
	r.cutoverMillis.Store(time.Since(cutoverStart).Milliseconds())
	if quiesceResume != nil {
		quiesceResume()
	}
	if err := persist.FinishReshard(r.cfg.FS, r.cfg.Root, in); err != nil {
		// The reshard IS committed; GC re-runs on the next recovery.
		r.cfg.Logf("reshard: deferred GC of old topology: %v", err)
	}
	r.setState(StateDone)
	r.cfg.Logf("reshard: %d→%d committed, cutover %dms", in.FromShards, in.ToShards, r.cutoverMillis.Load())
	return nil
}

// caughtUp reports whether every child is bootstrapped, on its parent's
// current generation, and within lagMax bytes of its parent's WAL.
func (r *Resharder) caughtUp(kids []*replica.Replica, n int, lagMax int64) bool {
	for c, kid := range kids {
		st := kid.Status()
		if !st.Ready {
			return false
		}
		ps := r.cfg.Stores[c%n].ReplicationStatus()
		if st.Generation != ps.Generation || ps.WALBytes-st.AppliedBytes > lagMax {
			return false
		}
	}
	return true
}

// drained waits (bounded by CutoverTimeout) until every child has
// applied its parent's entire WAL as of entry. Mutations are paused and
// repair quiesced, so the targets are final: the only appends that could
// land after them are fix-edge records, which children discard —
// content-irrelevant to the split.
func (r *Resharder) drained(kids []*replica.Replica, n int) bool {
	targets := make([]persist.ReplicationStatus, n)
	for p := 0; p < n; p++ {
		targets[p] = r.cfg.Stores[p].ReplicationStatus()
	}
	deadline := time.Now().Add(r.cfg.CutoverTimeout)
	for time.Now().Before(deadline) {
		ok := true
		for c, kid := range kids {
			st := kid.Status()
			t := targets[c%n]
			if !st.Ready || st.Generation != t.Generation || st.AppliedBytes < t.WALBytes {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// sealPQ detects per-parent PQ sidecars and, for each child, re-encodes
// its rows under the parent's frozen codebooks and seals a snapshot with
// the sidecar. Parents without PQ are skipped; children inherit exactly
// their parent's compression state.
func (r *Resharder) sealPQ(childStores []*persist.Store, ixs []*core.Index, n int) error {
	for c, st := range childStores {
		p := c % n
		q, err := r.cfg.Stores[p].LoadPQ()
		if errors.Is(err, persist.ErrNoPQ) {
			continue
		}
		if err != nil {
			return fmt.Errorf("load parent %d pq sidecar: %w", p, err)
		}
		cq := q.CloneEmpty()
		g := ixs[c].G
		cq.AppendRowsFrom(g.Vectors, 0, g.Len())
		if err := st.SnapshotPQ(g, cq); err != nil {
			return fmt.Errorf("seal child %d pq sidecar: %w", c, err)
		}
	}
	return nil
}

package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/vec"
	"ngfix/internal/xrand"
)

// Group fronts N shard-local fixers with the single-fixer surface the
// server speaks: searches scatter to every shard and gather through a
// top-k merge, mutations route to the owning shard, and maintenance
// (fix batches, purges, snapshots) fans out so each shard repairs and
// persists independently. Except for the round-robin insert cursor there
// is no cross-shard synchronization — a shard whose WAL is stalled holds
// only its own locks, so inserts, fixes, and snapshots on the other
// shards proceed at full speed.
type Group struct {
	router Router
	fixers []*core.OnlineFixer

	// replicas/pol route reads around unhealthy or unresponsive
	// primaries; see SetReplicas. Both are fixed at wiring time.
	replicas []ReadReplica
	pol      FailoverPolicy

	// rr is the insert cursor. Routing inserts round-robin (rather than
	// to the shortest shard) keeps placement lock-free: reading shard
	// lengths would order every insert behind every shard's write lock,
	// recreating exactly the cross-shard coupling sharding removes. It is
	// seeded with the total vector count so a group recovered from an
	// interleaved partition keeps assigning dense global ids.
	rr atomic.Uint64

	// Reshard cutover gate. paused makes new mutations fail fast with
	// ErrResharding; pauseMu is read-locked across each mutation (through
	// its WAL append) so PauseMutations can set paused and then take the
	// write lock to *wait out* every in-flight mutation — after it
	// returns, everything that will ever reach this group's WALs (except
	// fix batches, which splitting children skip) is already on disk.
	// Searches are never gated: cutover is invisible to reads.
	pauseMu sync.RWMutex
	paused  atomic.Bool
}

// ErrResharding is returned by mutation paths while the group is paused
// for a reshard cutover. The window is bounded (WAL drain + manifest
// commit); callers should retry, not fail the request.
var ErrResharding = errors.New("shard: mutations paused for reshard cutover")

// enterMutation admits one mutation under the cutover gate; the caller
// must invoke the returned func when the mutation (including its WAL
// append) is done.
func (g *Group) enterMutation() (func(), error) {
	g.pauseMu.RLock()
	if g.paused.Load() {
		g.pauseMu.RUnlock()
		return nil, ErrResharding
	}
	return g.pauseMu.RUnlock, nil
}

// PauseMutations flips the gate and waits for every in-flight mutation
// to finish. On return, no mutation is running and none can start; all
// mutation WAL appends this group will ever perform (modulo fix batches)
// have completed.
func (g *Group) PauseMutations() {
	g.paused.Store(true)
	g.pauseMu.Lock() // barrier: waits out every admitted mutation
	//lint:ignore SA2001 the critical section is the wait itself
	g.pauseMu.Unlock()
}

// ResumeMutations reopens the gate after a failed cutover attempt. A
// retired (swapped-out) group is never resumed: requests that raced the
// swap keep getting ErrResharding and retry against the new group.
func (g *Group) ResumeMutations() { g.paused.Store(false) }

// NewGroup wraps the given shard-local fixers. All shards must share one
// dimensionality (they serve slices of one vector space).
func NewGroup(fixers []*core.OnlineFixer) (*Group, error) {
	if len(fixers) == 0 {
		return nil, errors.New("shard: group needs at least one shard")
	}
	dim := fixers[0].Dim()
	for i, f := range fixers {
		if f == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
		if f.Dim() != dim {
			return nil, fmt.Errorf("shard: shard %d has dim %d, shard 0 has %d", i, f.Dim(), dim)
		}
	}
	g := &Group{router: NewRouter(len(fixers)), fixers: fixers}
	total := 0
	for _, f := range fixers {
		total += f.Len()
	}
	g.rr.Store(uint64(total))
	return g, nil
}

// Single wraps one fixer as a one-shard group — the compatibility path:
// every Group method degenerates to a direct delegate, global ids equal
// local ids, and SearchCtx bypasses the scatter machinery entirely.
func Single(f *core.OnlineFixer) *Group {
	g, err := NewGroup([]*core.OnlineFixer{f})
	if err != nil {
		panic(err) // only reachable with a nil fixer: a programming error
	}
	return g
}

// SetMutationHook installs fn on every shard's fixer (see
// core.OnlineFixer.SetMutationHook for the exact contract: runs after
// any applied mutation becomes visible to searches, before the call
// acks, error paths included). One hook serves all shards — the policy
// layer's answer cache is keyed on full queries, and every shard
// contributes to every answer, so any shard's mutation invalidates.
func (g *Group) SetMutationHook(fn func()) {
	for _, f := range g.fixers {
		f.SetMutationHook(fn)
	}
}

// RecordSynthetic fans synthetic (augmented) queries to every shard's
// fixer: a scatter-gather search records its query on every shard, so
// a synthetic stand-in must reach every shard to repair the same
// region. Each fixer accepts rows only while its pending buffer has
// headroom; the return is the minimum accepted across shards — the
// number of synthetic queries that reached the whole group.
func (g *Group) RecordSynthetic(qs *vec.Matrix) int {
	min := -1
	for _, f := range g.fixers {
		n := f.RecordSynthetic(qs)
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// Router returns the group's id↔shard arithmetic.
func (g *Group) Router() Router { return g.router }

// Shards returns the shard count.
func (g *Group) Shards() int { return len(g.fixers) }

// Fixer exposes shard i's fixer for wiring (per-shard background loops,
// tests). Callers must not bypass the group for mutations.
func (g *Group) Fixer(i int) *core.OnlineFixer { return g.fixers[i] }

// Dim returns the shared dimensionality. Lock-free, like the fixer's.
func (g *Group) Dim() int { return g.fixers[0].Dim() }

// Len returns the total vector count across shards. Each addend is an
// atomic read, so this stays responsive while a shard's writer is
// stalled — request validation depends on that.
func (g *Group) Len() int {
	n := 0
	for _, f := range g.fixers {
		n += f.Len()
	}
	return n
}

// Pending returns the total recorded queries awaiting fixing.
func (g *Group) Pending() int {
	n := 0
	for _, f := range g.fixers {
		n += f.Pending()
	}
	return n
}

// SearchCtx scatters the query to every shard and gathers a global
// top-k. parallel bounds how many per-shard beams run at once — the
// server passes the admission units the request was granted, so a
// half-admitted search under pressure degrades to a narrower fan-out
// instead of stealing CPU it did not pay for. Stats aggregate across
// shards (NDC and hops sum; they measure total work, which is what the
// cost model prices).
//
// Cancellation is two-level: each per-shard beam honors ctx on its own
// (returning its best-so-far with Truncated set), and the gather loop
// stops waiting for stragglers once ctx ends, merging whatever shards
// have answered. Either way the caller gets a ranked partial answer
// with Stats.Truncated reporting the quality loss.
func (g *Group) SearchCtx(ctx context.Context, q []float32, k, ef int, parallel int) ([]graph.Result, graph.Stats) {
	res, st, _ := g.SearchStale(ctx, q, k, ef, parallel)
	return res, st
}

// InsertChecked routes the vector to the next shard in round-robin
// order and returns its global id. The error (if any) is the owning
// shard's journal-append failure, wrapped with the shard index; the
// vector is live in memory either way.
func (g *Group) InsertChecked(v []float32) (uint32, error) {
	exit, err := g.enterMutation()
	if err != nil {
		return 0, err
	}
	defer exit()
	s := int(g.rr.Add(1)-1) % len(g.fixers)
	local, err := g.fixers[s].InsertChecked(v)
	if err != nil {
		err = fmt.Errorf("shard %d: %w", s, err)
	}
	return g.router.Global(s, local), err
}

// DeleteChecked routes the tombstone to the shard owning id. An id whose
// local part is beyond the owning shard's length was never assigned:
// core.ErrUnknownID, same as the single-fixer path.
func (g *Group) DeleteChecked(id uint32) (bool, error) {
	exit, err := g.enterMutation()
	if err != nil {
		return false, err
	}
	defer exit()
	s := g.router.ShardOf(id)
	changed, err := g.fixers[s].DeleteChecked(g.router.Local(id))
	if err != nil && !errors.Is(err, core.ErrUnknownID) {
		err = fmt.Errorf("shard %d: %w", s, err)
	}
	return changed, err
}

// FixPendingChecked drains every shard's recorded queries in parallel
// and aggregates the reports. Per-shard durability errors are joined,
// each wrapped with its shard index, so a background loop can log
// exactly which shard's journal is failing.
func (g *Group) FixPendingChecked() (core.FixReport, error) {
	exit, err := g.enterMutation()
	if err != nil {
		return core.FixReport{}, err
	}
	defer exit()
	reps := make([]core.FixReport, len(g.fixers))
	errs := make([]error, len(g.fixers))
	var wg sync.WaitGroup
	for s, f := range g.fixers {
		wg.Add(1)
		go func(s int, f *core.OnlineFixer) {
			defer wg.Done()
			rep, err := f.FixPendingChecked()
			reps[s] = rep
			if err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
			}
		}(s, f)
	}
	wg.Wait()
	var total core.FixReport
	for _, rep := range reps {
		total.Queries += rep.Queries
		total.NGFixEdges += rep.NGFixEdges
		total.NGFixPruned += rep.NGFixPruned
		total.RFixEdges += rep.RFixEdges
		total.RFixTriggered += rep.RFixTriggered
		total.RFixReached += rep.RFixReached
		total.DefectivePairs += rep.DefectivePairs
		if rep.Elapsed > total.Elapsed {
			total.Elapsed = rep.Elapsed // shards ran concurrently: wall clock is the max
		}
	}
	return total, errors.Join(errs...)
}

// PurgeAndRepair purges tombstones on every shard in parallel and
// aggregates the reports (Elapsed is the slowest shard: they ran
// concurrently). The error is only ever ErrResharding — a purge rewrites
// graphs and seals barrier snapshots, which cannot overlap a cutover.
func (g *Group) PurgeAndRepair(k, efTruth int) (core.PurgeReport, error) {
	exit, err := g.enterMutation()
	if err != nil {
		return core.PurgeReport{}, err
	}
	defer exit()
	reps := make([]core.PurgeReport, len(g.fixers))
	var wg sync.WaitGroup
	for s, f := range g.fixers {
		wg.Add(1)
		go func(s int, f *core.OnlineFixer) {
			defer wg.Done()
			reps[s] = f.PurgeAndRepair(k, efTruth)
		}(s, f)
	}
	wg.Wait()
	var total core.PurgeReport
	for _, rep := range reps {
		total.Purged += rep.Purged
		total.EdgesRemoved += rep.EdgesRemoved
		total.RepairEdges += rep.RepairEdges
		if rep.Elapsed > total.Elapsed {
			total.Elapsed = rep.Elapsed
		}
	}
	return total, nil
}

// Snapshot forces a durable snapshot on every shard in parallel. Shards
// that fail are reported together (each wrapped with its index); shards
// that succeed have still sealed their state — one bad disk does not
// veto the others' durability.
func (g *Group) Snapshot() error {
	exit, err := g.enterMutation()
	if err != nil {
		return err
	}
	defer exit()
	errs := make([]error, len(g.fixers))
	var wg sync.WaitGroup
	for s, f := range g.fixers {
		wg.Add(1)
		go func(s int, f *core.OnlineFixer) {
			defer wg.Done()
			if err := f.Snapshot(); err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
			}
		}(s, f)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// OnlineStats returns the aggregate view the stats endpoint has always
// served plus the per-shard breakdown. Sums are exact per shard but the
// shards are snapshotted one after another, so cross-shard totals can
// drift by in-flight mutations — progress gauges, not invariants.
func (g *Group) OnlineStats() (core.OnlineStats, []core.OnlineStats) {
	per := make([]core.OnlineStats, len(g.fixers))
	for s, f := range g.fixers {
		per[s] = f.OnlineStats()
	}
	total := per[0]
	if len(per) == 1 {
		return total, per
	}
	degreeWeight := total.AvgDegree * float64(total.Vectors)
	for _, st := range per[1:] {
		total.Vectors += st.Vectors
		total.Live += st.Live
		total.SizeBytes += st.SizeBytes
		total.BaseEdges += st.BaseEdges
		total.ExtraEdges += st.ExtraEdges
		total.Pending += st.Pending
		total.FixedQueries += st.FixedQueries
		total.FixBatches += st.FixBatches
		total.ShedQueries += st.ShedQueries
		total.WALErrors += st.WALErrors
		degreeWeight += st.AvgDegree * float64(st.Vectors)
		if total.LastWALError == "" && st.LastWALError != "" {
			total.LastWALError = st.LastWALError
		}
	}
	if total.Vectors > 0 {
		total.AvgDegree = degreeWeight / float64(total.Vectors)
	}
	return total, per
}

// PQStats aggregates the compressed-serving block across shards (counters
// and byte accounting sum; the shape fields come from the first enabled
// shard — the serving wiring enables PQ uniformly). ok is false when no
// shard serves compressed.
func (g *Group) PQStats() (core.PQStats, []core.PQStats, bool) {
	per := make([]core.PQStats, len(g.fixers))
	var total core.PQStats
	any := false
	for s, f := range g.fixers {
		st, ok := f.PQStats()
		if !ok {
			continue
		}
		per[s] = st
		if !any {
			total = st
			any = true
			continue
		}
		total.Rows += st.Rows
		total.CodeBytes += st.CodeBytes
		total.CodebookBytes += st.CodebookBytes
		total.TierResidentBytes += st.TierResidentBytes
		total.ResidentBytes += st.ResidentBytes
		total.FullVectorBytes += st.FullVectorBytes
		total.ScanCopyBytes += st.ScanCopyBytes
		total.Searches += st.Searches
		total.ADCLookups += st.ADCLookups
		total.RerankNDC += st.RerankNDC
		total.Truncated += st.Truncated
	}
	return total, per, any
}

// Degraded reports whether any shard's durability sink is failed.
func (g *Group) Degraded() bool {
	for _, f := range g.fixers {
		if f.Degraded() {
			return true
		}
	}
	return false
}

// DegradedShards lists the shards whose durability sink is failed, for
// the readiness endpoint to name.
func (g *Group) DegradedShards() []int {
	var bad []int
	for s, f := range g.fixers {
		if f.Degraded() {
			bad = append(bad, s)
		}
	}
	return bad
}

// RunBackground runs every shard's maintenance loop until ctx ends, each
// in its own goroutine with its log lines prefixed "shard <i>: " — a
// shard backing off after a journal failure is identifiable, and does
// not delay the others' cadence. Start times are staggered with jitter
// across one interval (shard i sleeps (i+u)·interval/N first), so N
// shards never take their write locks and fire their fix batches in
// lockstep — synchronized batches would spike tail latency every
// interval, which staggering turns into N small, spread-out bumps.
// Blocks until all loops exit.
func (g *Group) RunBackground(ctx context.Context, interval time.Duration, logf func(format string, args ...interface{})) {
	if len(g.fixers) == 1 {
		g.fixers[0].RunBackground(ctx, interval, logf)
		return
	}
	rng := xrand.New()
	n := len(g.fixers)
	var wg sync.WaitGroup
	for s, f := range g.fixers {
		delay := time.Duration((float64(s) + rng.Float64()) * float64(interval) / float64(n))
		wg.Add(1)
		go func(s int, f *core.OnlineFixer, delay time.Duration) {
			defer wg.Done()
			timer := time.NewTimer(delay)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
			shardLogf := logf
			if logf != nil {
				shardLogf = func(format string, args ...interface{}) {
					logf("shard %d: "+format, append([]interface{}{s}, args...)...)
				}
			}
			f.RunBackground(ctx, interval, shardLogf)
		}(s, f, delay)
	}
	wg.Wait()
}

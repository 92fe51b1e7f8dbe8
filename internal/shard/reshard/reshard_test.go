package reshard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/hnsw"
	"ngfix/internal/persist"
	"ngfix/internal/pq"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

var testOpts = core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24}

const testDim = 4

// testVec is a deterministic pseudo-random vector for global id i, so a
// row's content certifies its identity across any re-partitioning.
func testVec(i int) []float32 {
	v := make([]float32, testDim)
	x := uint32(i)*2654435761 + 1
	for j := range v {
		x = x*1664525 + 1013904223
		v[j] = float32(x%1000) / 1000
	}
	return v
}

// parent is a seeded pre-split topology: n journaled shards with sealed
// snapshots AND live WAL tails (mutations after the seal), the shape a
// reshard streams from.
type parent struct {
	root   string
	stores []*persist.Store
	group  *shard.Group
	lay    persist.Layout
}

func seedParents(t *testing.T, n, rows int) *parent {
	t.Helper()
	root := t.TempDir()
	lay, err := persist.ResolveLayout(nil, root, n, true)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Shards != n || lay.Epoch != 0 {
		t.Fatalf("seed layout = %+v, want {%d 0}", lay, n)
	}
	stores, err := persist.OpenSharded(root, n, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	base := vec.NewMatrix(0, testDim)
	for i := 0; i < rows; i++ {
		base.Append(testVec(i))
	}
	parts := shard.Partition(base, n)
	fixers := make([]*core.OnlineFixer, n)
	for s, p := range parts {
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
		ix := core.New(h.Bottom(), testOpts)
		fixers[s] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: stores[s]})
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the seal: children must stream the snapshot AND
	// tail these from the WAL.
	for i := rows; i < rows+2*n+3; i++ {
		if _, err := g.InsertChecked(testVec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.DeleteChecked(uint32(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.DeleteChecked(uint32(rows + 2)); err != nil {
		t.Fatal(err)
	}
	return &parent{root: root, stores: stores, group: g, lay: lay}
}

func (p *parent) close() {
	for _, st := range p.stores {
		st.Close()
	}
}

// ref captures every global id's vector and tombstone from the live
// group — the ground truth any post-reshard topology must reproduce.
type ref struct {
	vecs map[uint32][]float32
	dead map[uint32]bool
}

func capture(g *shard.Group) ref {
	r := ref{vecs: map[uint32][]float32{}, dead: map[uint32]bool{}}
	router := g.Router()
	for s := 0; s < g.Shards(); s++ {
		pg := g.Fixer(s).Index().G
		for l := 0; l < pg.Len(); l++ {
			gid := router.Global(s, uint32(l))
			row := pg.Vectors.Row(l)
			r.vecs[gid] = append([]float32(nil), row...)
			r.dead[gid] = pg.IsDeleted(uint32(l))
		}
	}
	return r
}

// verifyTopology recovers the on-disk state at root (resolving any
// crash first) and asserts it holds exactly want's rows at the resolved
// router's positions — the old-or-new-never-a-mix oracle.
func verifyTopology(t *testing.T, root string, want ref, wantShards, wantEpoch int) {
	t.Helper()
	lay, err := persist.ResolveLayout(nil, root, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Shards != wantShards || lay.Epoch != wantEpoch {
		t.Fatalf("resolved layout {%d %d}, want {%d %d}", lay.Shards, lay.Epoch, wantShards, wantEpoch)
	}
	if _, ok, err := persist.ReadReshardIntent(nil, root); err != nil || ok {
		t.Fatalf("intent after recovery: ok=%v err=%v, want gone", ok, err)
	}
	stores, err := persist.OpenShardedAt(root, lay.Shards, lay.Epoch, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	ixs, _, err := shard.Recover(stores, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	router := shard.NewRouter(lay.Shards)
	total := 0
	for _, ix := range ixs {
		total += ix.G.Len()
	}
	if total != len(want.vecs) {
		t.Fatalf("recovered %d rows across %d shards, want %d", total, lay.Shards, len(want.vecs))
	}
	for gid, wantRow := range want.vecs {
		s, l := router.ShardOf(gid), router.Local(gid)
		g := ixs[s].G
		if int(l) >= g.Len() {
			t.Fatalf("id %d missing from shard %d (len %d, want local %d)", gid, s, g.Len(), l)
		}
		got := g.Vectors.Row(int(l))
		for j := range wantRow {
			if got[j] != wantRow[j] {
				t.Fatalf("id %d: vector differs at shard %d local %d", gid, s, l)
			}
		}
		if g.IsDeleted(l) != want.dead[gid] {
			t.Fatalf("id %d: tombstone %v, want %v", gid, g.IsDeleted(l), want.dead[gid])
		}
	}
}

// TestReshardOffline2to4 is the CLI shape: static parents (no serving
// group), stream + cut over, verify the doubled topology holds exactly
// the parents' rows.
func TestReshardOffline2to4(t *testing.T) {
	p := seedParents(t, 2, 60)
	defer p.close()
	want := capture(p.group)

	r, err := New(Config{
		Root:      p.root,
		Stores:    p.stores,
		Layout:    p.lay,
		Opts:      testOpts,
		StoreOpts: persist.Options{NoSync: true},
		Poll:      time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	pr := r.Progress()
	if pr.State != StateDone || pr.Active {
		t.Fatalf("progress after success: %+v", pr)
	}
	if pr.RowsStreamed == 0 || pr.OpsTailed == 0 {
		t.Fatalf("counters never moved: %+v", pr)
	}
	verifyTopology(t, p.root, want, 4, 1)
}

// TestReshardCrashSeams kills the coordinator at every stage boundary
// and proves recovery lands on exactly the old topology (pre-commit
// seams) or exactly the new one (post-commit) — never a mix, never a
// leftover intent.
func TestReshardCrashSeams(t *testing.T) {
	seams := []struct {
		at                    string
		wantShards, wantEpoch int
	}{
		{"intent", 2, 0},
		{"stream", 2, 0},
		{"tail", 2, 0},
		{"precommit", 2, 0},
		{"postcommit", 4, 1},
	}
	for _, seam := range seams {
		seam := seam
		t.Run(seam.at, func(t *testing.T) {
			p := seedParents(t, 2, 40)
			want := capture(p.group)
			r, err := New(Config{
				Root:      p.root,
				Stores:    p.stores,
				Layout:    p.lay,
				Opts:      testOpts,
				StoreOpts: persist.Options{NoSync: true},
				Poll:      time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			r.crashAt = seam.at
			if err := r.Run(context.Background()); !errors.Is(err, errCrashInjected) {
				t.Fatalf("Run = %v, want injected crash", err)
			}
			if pr := r.Progress(); pr.State != StateFailed {
				t.Fatalf("state after crash = %s", pr.State)
			}
			p.close() // the process is dead; recovery opens fresh handles
			verifyTopology(t, p.root, want, seam.wantShards, seam.wantEpoch)
			// Recovery is idempotent: resolving again changes nothing.
			verifyTopology(t, p.root, want, seam.wantShards, seam.wantEpoch)
		})
	}
}

// TestReshardAbortOnCancel: a canceled reshard reclaims the staged side
// and leaves the old topology exactly as it was.
func TestReshardAbortOnCancel(t *testing.T) {
	p := seedParents(t, 2, 40)
	defer p.close()
	want := capture(p.group)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(Config{
		Root:      p.root,
		Stores:    p.stores,
		Layout:    p.lay,
		Opts:      testOpts,
		StoreOpts: persist.Options{NoSync: true},
		Poll:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	verifyTopology(t, p.root, want, 2, 0)
}

// TestReshardOnline2to4 is the tentpole's serving story: mutations and
// searches run against the group throughout a live 2→4 split. Mutations
// that hit the cutover gate retry onto the freshly installed group;
// searches are never interrupted. Afterwards every row — seeded or
// inserted mid-flight, before or after the swap — sits at the doubled
// router's position.
func TestReshardOnline2to4(t *testing.T) {
	p := seedParents(t, 2, 60)
	defer p.close()

	var cur atomic.Pointer[shard.Group]
	cur.Store(p.group)
	var installedStores []*persist.Store
	var quiesces, resumes, acquires atomic.Int64

	r, err := New(Config{
		Root:      p.root,
		Stores:    p.stores,
		Layout:    p.lay,
		Opts:      testOpts,
		StoreOpts: persist.Options{NoSync: true},
		Poll:      time.Millisecond,
		Group:     p.group,
		Acquire: func(cost int) (func(), bool) {
			acquires.Add(int64(cost))
			return func() {}, true
		},
		Quiesce: func() func() {
			quiesces.Add(1)
			return func() { resumes.Add(1) }
		},
		Assemble: func(stores []*persist.Store, ixs []*core.Index) (func(), error) {
			fixers := make([]*core.OnlineFixer, len(ixs))
			for c, ix := range ixs {
				fixers[c] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: stores[c]})
			}
			g, err := shard.NewGroup(fixers)
			if err != nil {
				return nil, err
			}
			return func() {
				installedStores = stores
				cur.Store(g)
			}, nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Live traffic: inserts retrying through the cutover gate, searches
	// that must never fail. next counts from past every seeded id.
	var mu sync.Mutex
	live := map[uint32][]float32{}
	next := 200
	stop := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			v := testVec(i)
			for {
				g := cur.Load()
				id, err := g.InsertChecked(v)
				if err == nil {
					mu.Lock()
					live[id] = v
					mu.Unlock()
					break
				}
				if !errors.Is(err, shard.ErrResharding) {
					t.Errorf("insert: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
			if res, _ := cur.Load().SearchCtx(context.Background(), v, 3, 40, 2); len(res) == 0 {
				t.Error("search returned nothing during reshard")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	traffic.Wait()
	if t.Failed() {
		t.FailNow()
	}

	ng := cur.Load()
	if ng == p.group || ng.Shards() != 4 {
		t.Fatalf("installed group has %d shards (swapped=%v), want 4", ng.Shards(), ng != p.group)
	}
	if len(installedStores) != 4 {
		t.Fatalf("installed %d stores, want 4", len(installedStores))
	}
	// The retired group stays paused: stragglers must retry, not mutate
	// a dead topology.
	if _, err := p.group.InsertChecked(testVec(0)); !errors.Is(err, shard.ErrResharding) {
		t.Fatalf("retired group insert = %v, want ErrResharding", err)
	}
	if quiesces.Load() == 0 || quiesces.Load() != resumes.Load() {
		t.Fatalf("quiesce/resume unbalanced: %d/%d", quiesces.Load(), resumes.Load())
	}
	if acquires.Load() == 0 {
		t.Fatal("reshard streamed without paying admission")
	}
	pr := r.Progress()
	if pr.State != StateDone || pr.CutoverAttempts == 0 {
		t.Fatalf("progress: %+v", pr)
	}

	// Every tracked row — seeded, pre-swap, post-swap — is in the new
	// group at the 4-shard router's position.
	r4 := shard.NewRouter(4)
	mu.Lock()
	defer mu.Unlock()
	for id, v := range live {
		s, l := r4.ShardOf(id), r4.Local(id)
		g := ng.Fixer(s).Index().G
		if int(l) >= g.Len() {
			t.Fatalf("live id %d missing from shard %d", id, s)
		}
		got := g.Vectors.Row(int(l))
		for j := range v {
			if got[j] != v[j] {
				t.Fatalf("live id %d: vector differs after split", id)
			}
		}
	}

	// And the committed on-disk state recovers to the new group's rows.
	want := capture(ng)
	for _, st := range installedStores {
		st.Close()
	}
	verifyTopology(t, p.root, want, 4, 1)
}

// TestReshardPQFromSingleShard: a 1→2 split of a PQ-compressed
// one-shard store. Children inherit the parent's frozen codebooks with codes
// re-encoded row-stable: child code bytes equal the parent's for the
// same global id.
func TestReshardPQFromSingleShard(t *testing.T) {
	root := t.TempDir()
	lay, err := persist.ResolveLayout(nil, root, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	parents, err := persist.OpenSharded(root, 1, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st := parents[0]
	defer st.Close()

	base := vec.NewMatrix(0, testDim)
	for i := 0; i < 80; i++ {
		base.Append(testVec(i))
	}
	h := hnsw.Build(base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), testOpts)
	q, err := pq.Train(base, pq.Config{M: 2, KS: 16, Iters: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SnapshotPQ(ix.G, q); err != nil {
		t.Fatal(err)
	}

	r, err := New(Config{
		Root:      root,
		Stores:    []*persist.Store{st},
		Layout:    lay,
		Opts:      testOpts,
		StoreOpts: persist.Options{NoSync: true},
		Poll:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	stores, err := persist.OpenShardedAt(root, 2, 1, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, cst := range stores {
			cst.Close()
		}
	}()
	ixs, _, err := shard.Recover(stores, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	r2 := shard.NewRouter(2)
	for c, cst := range stores {
		cq, err := cst.LoadPQ()
		if err != nil {
			t.Fatalf("child %d has no pq sidecar: %v", c, err)
		}
		if cq.Rows() != ixs[c].G.Len() {
			t.Fatalf("child %d: %d codes for %d rows", c, cq.Rows(), ixs[c].G.Len())
		}
		for cl := 0; cl < cq.Rows(); cl++ {
			gid := int(r2.Global(c, uint32(cl)))
			wantCode, gotCode := q.Code(gid), cq.Code(cl)
			for m := range wantCode {
				if wantCode[m] != gotCode[m] {
					t.Fatalf("child %d local %d (global %d): code differs", c, cl, gid)
				}
			}
		}
	}
}

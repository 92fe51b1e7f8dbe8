package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/policy"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// newPolicyServer wires a single-shard server with the policy layer the
// way production does: EnablePolicy before traffic, mutation hooks into
// the fixer, optional WAL for durability-failure tests.
func newPolicyServer(t *testing.T, wal core.WAL, cacheSize int, adaptive bool) (*httptest.Server, *Server, *policy.Engine, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "pol", N: 500, NHist: 100, NTest: 30,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 50, PrepEF: 80, WAL: wal})
	g := shard.Single(fixer)
	s := NewSharded(g)
	var ad *policy.Adaptive
	if adaptive {
		ad = policy.NewAdaptive(d.Base.Dim(), policy.AdaptiveConfig{
			ReservoirSize: 64, MinSamples: 32, RecalEvery: 64,
			Buckets: 2, K: 5, Metric: vec.L2, Seed: 2,
		}, func(q []float32, k, ef int) []graph.Result {
			res, _ := g.SearchCtx(context.Background(), q, k, ef, 1)
			return res
		})
	}
	eng := policy.NewEngine(policy.NewCache(cacheSize), ad, nil, g.RecordSynthetic, nil)
	s.EnablePolicy(eng)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, eng, d
}

func search(t *testing.T, url string, v []float32, k, ef int) SearchResponse {
	t.Helper()
	var out SearchResponse
	req := SearchRequest{Vector: v}
	if k > 0 {
		req.K = IntPtr(k)
	}
	if ef > 0 {
		req.EF = IntPtr(ef)
	}
	resp := post(t, url+"/v1/search", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	return out
}

// TestAnswerCacheServingPath: a repeated query is served from the cache
// with full attribution, identical results, and probe-only NDC.
func TestAnswerCacheServingPath(t *testing.T) {
	ts, _, eng, d := newPolicyServer(t, nil, 128, false)
	q := d.TestOOD.Row(0)

	first := search(t, ts.URL, q, 5, 40)
	if first.Policy != "" {
		t.Fatalf("first search attributed %q", first.Policy)
	}
	second := search(t, ts.URL, q, 5, 40)
	if second.Policy != policy.AttrCacheHit {
		t.Fatalf("repeat search policy %q, want cache_hit", second.Policy)
	}
	if second.NDC != 0 {
		t.Fatalf("cache hit reported NDC %d, want 0 (no adaptive probe)", second.NDC)
	}
	if len(second.Results) != len(first.Results) {
		t.Fatalf("cached results %d, first %d", len(second.Results), len(first.Results))
	}
	for i := range first.Results {
		if first.Results[i] != second.Results[i] {
			t.Fatalf("cached answer drifted at %d: %+v vs %+v", i, first.Results[i], second.Results[i])
		}
	}
	// A narrower repeat is covered by the wider stored answer.
	if narrower := search(t, ts.URL, q, 3, 30); narrower.Policy != policy.AttrCacheHit || len(narrower.Results) != 3 {
		t.Fatalf("narrower repeat: policy=%q results=%d", narrower.Policy, len(narrower.Results))
	}
	if st := eng.Cache().Stats(); st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
}

// TestCacheInvalidationOnMutations: insert, delete, and a fix batch each
// invalidate — the repeat after any of them is a miss, then caches again.
func TestCacheInvalidationOnMutations(t *testing.T) {
	ts, _, eng, d := newPolicyServer(t, nil, 128, false)
	q := d.TestOOD.Row(1)

	requireMissThenHit := func(stage string) {
		t.Helper()
		if got := search(t, ts.URL, q, 5, 40); got.Policy == policy.AttrCacheHit {
			t.Fatalf("%s: cache hit across an invalidation", stage)
		}
		if got := search(t, ts.URL, q, 5, 40); got.Policy != policy.AttrCacheHit {
			t.Fatalf("%s: re-cache failed (policy %q)", stage, got.Policy)
		}
	}
	requireMissThenHit("warmup")

	gen0 := eng.Cache().Generation()
	var ins InsertResponse
	if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: d.History.Row(0)}, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	if eng.Cache().Generation() == gen0 {
		t.Fatal("insert did not bump the cache generation")
	}
	requireMissThenHit("insert")

	var del DeleteResponse
	if resp := post(t, ts.URL+"/v1/delete", DeleteRequest{ID: ins.ID}, &del); resp.StatusCode != http.StatusOK || !del.Deleted {
		t.Fatalf("delete: status %d deleted %v", resp.StatusCode, del.Deleted)
	}
	requireMissThenHit("delete")

	// The searches above were recorded; a fix batch mutates edges.
	var fix FixResponse
	if resp := post(t, ts.URL+"/v1/fix", struct{}{}, &fix); resp.StatusCode != http.StatusOK {
		t.Fatalf("fix status %d", resp.StatusCode)
	}
	if fix.Queries == 0 {
		t.Fatal("fix drained no queries — the invalidation path is untested")
	}
	requireMissThenHit("fix")
}

// TestWALFailureStillInvalidates is the fault-injection ordering test:
// when the journal append fails, the mutation is applied in memory and
// the client is refused the ack — the cache must still be invalidated,
// or the refused-but-live vector would be invisible to repeat queries.
func TestWALFailureStillInvalidates(t *testing.T) {
	wal := &flakyWAL{}
	ts, _, eng, d := newPolicyServer(t, wal, 128, false)
	v := append([]float32(nil), d.History.Row(2)...)

	// Prime the cache with the exact vector we are about to insert.
	if got := search(t, ts.URL, v, 5, 40); got.Policy == policy.AttrCacheHit {
		t.Fatal("first search hit")
	}
	if got := search(t, ts.URL, v, 5, 40); got.Policy != policy.AttrCacheHit {
		t.Fatal("prime failed")
	}

	wal.setBroken(true)
	gen := eng.Cache().Generation()
	if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: v}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("insert with failing WAL status %d, want 500", resp.StatusCode)
	}
	if eng.Cache().Generation() == gen {
		t.Fatal("refused insert did not invalidate the cache")
	}
	// The repeat must re-search and see the live (if un-acked) vector.
	got := search(t, ts.URL, v, 5, 40)
	if got.Policy == policy.AttrCacheHit {
		t.Fatal("cache served across a WAL-refused mutation")
	}
	if got.Results[0].Dist != 0 {
		t.Fatalf("fresh search missed the live vector: top dist %v", got.Results[0].Dist)
	}
	// Same contract on the delete refusal path.
	gen = eng.Cache().Generation()
	if resp := post(t, ts.URL+"/v1/delete", DeleteRequest{ID: 0}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("delete with failing WAL status %d, want 500", resp.StatusCode)
	}
	if eng.Cache().Generation() == gen {
		t.Fatal("refused delete did not invalidate the cache")
	}
}

// staleReplica serves canned answers and reports ready — used to force
// the failover path so the response carries stale:true.
type staleReplica struct{ res []graph.Result }

func (f *staleReplica) SearchCtx(ctx context.Context, q []float32, k, ef int) ([]graph.Result, graph.Stats, bool) {
	return f.res, graph.Stats{NDC: 1}, true
}
func (f *staleReplica) Ready() bool   { return true }
func (f *staleReplica) NoteFailover() {}

// TestStaleReplicaAnswerNotCached: a failover answer flagged stale must
// bypass the cache — pinning it would keep serving the replica's lagged
// view at full speed after the primary recovers.
func TestStaleReplicaAnswerNotCached(t *testing.T) {
	ts, s, eng, d := newPolicyServer(t, nil, 128, false)
	rep := &staleReplica{res: []graph.Result{{ID: 1, Dist: 0.5}, {ID: 2, Dist: 0.6}}}
	if err := s.Topology().Group.SetReplicas([]shard.ReadReplica{rep}, shard.FailoverPolicy{
		Unhealthy: func(int) bool { return true }, // primary always failed over
	}); err != nil {
		t.Fatal(err)
	}
	q := d.TestOOD.Row(3)
	got := search(t, ts.URL, q, 2, 40)
	if !got.Stale {
		t.Fatalf("forced failover answer not stale: %+v", got)
	}
	if st := eng.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("stale answer cached: %+v", st)
	}
	if repeat := search(t, ts.URL, q, 2, 40); repeat.Policy == policy.AttrCacheHit {
		t.Fatal("repeat of a stale answer served from cache")
	}
}

// TestAdaptiveEFAttribution drives enough traffic through the server for
// the self-calibration to land, then checks a default-ef search is
// attributed adaptive_ef with the calibrated (smaller) ef in efUsed.
func TestAdaptiveEFAttribution(t *testing.T) {
	ts, _, eng, d := newPolicyServer(t, nil, 0, true)
	for i := 0; i < 40; i++ {
		search(t, ts.URL, d.History.Row(i%d.History.Rows()), 5, 40)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !eng.Adaptive().Ready() {
		if time.Now().After(deadline) {
			t.Fatal("calibration did not land")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, efs := eng.Adaptive().Buckets()
	allowed := map[int]bool{}
	for _, ef := range efs {
		allowed[ef] = true
	}
	// Default ef (omitted): replaced by the calibrated choice.
	got := search(t, ts.URL, d.History.Row(0), 5, 0)
	if got.Policy != policy.AttrAdaptiveEF && !allowed[got.EFUsed] {
		t.Fatalf("adapted search: policy=%q efUsed=%d (calibrated %v)", got.Policy, got.EFUsed, efs)
	}
	if got.NDC == 0 {
		t.Fatal("probe NDC not accounted")
	}
	// Explicit tiny ef is a ceiling adaptive cannot raise.
	ceiling := search(t, ts.URL, d.TestOOD.Row(0), 5, 5)
	if ceiling.EFUsed > 5 {
		t.Fatalf("explicit ef raised: efUsed=%d", ceiling.EFUsed)
	}
}

// TestConcurrentPolicyNoStaleHits is the -race invalidation-ordering
// test: searchers, inserters, deleters, and fix batches run against the
// cached server at once; afterwards a final mutation must leave no
// cached entry serving, and fresh answers must match the store.
func TestConcurrentPolicyNoStaleHits(t *testing.T) {
	ts, s, eng, d := newPolicyServer(t, nil, 256, false)
	pool := make([][]float32, 16)
	for i := range pool {
		pool[i] = d.TestOOD.Row(i % d.TestOOD.Rows())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				search(t, ts.URL, pool[(w*5+i)%len(pool)], 5, 40)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			post(t, ts.URL+"/v1/insert", InsertRequest{Vector: d.History.Row(i)}, nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			post(t, ts.URL+"/v1/delete", DeleteRequest{ID: uint32(i)}, nil)
			post(t, ts.URL+"/v1/fix", struct{}{}, nil)
		}
	}()
	wg.Wait()

	// One more mutation, then: no pool query may hit, and the re-searched
	// answers must agree with a direct group search (same store state).
	post(t, ts.URL+"/v1/insert", InsertRequest{Vector: d.History.Row(50)}, nil)
	for i, q := range pool {
		got := search(t, ts.URL, q, 5, 40)
		if got.Policy == policy.AttrCacheHit {
			t.Fatalf("query %d hit across the final invalidation", i)
		}
		want, _ := s.Topology().Group.SearchCtx(context.Background(), q, 5, 40, 1)
		if len(got.Results) != len(want) {
			t.Fatalf("query %d: %d results, direct search %d", i, len(got.Results), len(want))
		}
		for j := range want {
			if got.Results[j].ID != want[j].ID {
				t.Fatalf("query %d result %d: id %d, direct %d", i, j, got.Results[j].ID, want[j].ID)
			}
		}
	}
	if st := eng.Cache().Stats(); st.Invalidations == 0 {
		t.Fatalf("no invalidations recorded under concurrent mutations: %+v", st)
	}
}

// TestPolicyAbsentFromLegacyPayloads pins byte-stability: with no policy
// configured, /v1/stats has no "policy" block and /v1/search no "policy"
// field — existing clients and dashboards see nothing new.
func TestPolicyAbsentFromLegacyPayloads(t *testing.T) {
	ts, d := newTestServer(t) // no EnablePolicy
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"policy"`) {
		t.Fatalf("stats body leaks a policy block with no policy configured:\n%s", body)
	}
	var buf strings.Builder
	sresp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(3), EF: IntPtr(30)}, nil)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", sresp.StatusCode)
	}
	if _, err := io.Copy(&buf, sresp.Body); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"policy"`) {
		t.Fatalf("search body leaks a policy field with no policy configured:\n%s", buf.String())
	}
}

// TestStatsPolicyBlock: configured policies surface their slices.
func TestStatsPolicyBlock(t *testing.T) {
	ts, _, _, d := newPolicyServer(t, nil, 64, true)
	search(t, ts.URL, d.TestOOD.Row(0), 5, 40)
	search(t, ts.URL, d.TestOOD.Row(0), 5, 40)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := decodeBody(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Cache == nil || st.Policy.Adaptive == nil {
		t.Fatalf("policy block incomplete: %+v", st.Policy)
	}
	if st.Policy.Augment != nil {
		t.Fatal("augment slice present though augmentation is off")
	}
	if st.Policy.Cache.Hits != 1 || st.Policy.Cache.Entries != 1 {
		t.Fatalf("cache slice: %+v", st.Policy.Cache)
	}
}

package main

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// TestMetricsEndToEnd runs the real binary and scrapes /metrics like a
// Prometheus server would: the exposition must parse strictly and the
// search, fix-batch, WAL, and admission families must have moved with
// the traffic. Also covers -pprof (profile index answers 200) and
// -metrics=false (404).
func TestMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "obs-e2e", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 11,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}

	p := startServer(t, bin, "-index", idx,
		"-snapshot-dir", filepath.Join(work, "state"),
		"-fix-batch", "16", "-pprof")

	const searches = 8
	for qi := 0; qi < searches; qi++ {
		var sr server.SearchResponse
		p.post(t, "/v1/search", server.SearchRequest{Vector: d.History.Row(qi), K: server.IntPtr(5), EF: server.IntPtr(20)}, &sr)
	}
	var ir server.InsertResponse
	p.post(t, "/v1/insert", server.InsertRequest{Vector: d.History.Row(0)}, &ir)
	var fr server.FixResponse
	p.post(t, "/v1/fix", struct{}{}, &fr)
	if fr.Queries == 0 {
		t.Fatal("fix consumed no queries")
	}

	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	checks := []struct {
		key string
		min float64
	}{
		{`ngfix_search_duration_seconds_count{outcome="ok"}`, searches},
		{`ngfix_search_ndc_count{shard="0"}`, searches},
		{`ngfix_fix_batches_total{shard="0"}`, 1},
		{`ngfix_fix_queries_total{shard="0"}`, float64(fr.Queries)},
		{`ngfix_wal_append_seconds_count{shard="0"}`, 2}, // insert + fix batch
		{`ngfix_wal_snapshot_seconds_count{shard="0"}`, 1},
		{`ngfix_admission_admitted_total{shard="all"}`, searches + 2},
		{`ngfix_vectors{shard="0"}`, 401},
		{"go_goroutines", 1},
	}
	for _, c := range checks {
		got, ok := samples[c.key]
		if !ok {
			t.Errorf("missing %s in exposition", c.key)
			continue
		}
		if got < c.min {
			t.Errorf("%s = %v, want >= %v", c.key, got, c.min)
		}
	}

	// One labelling rule at every shard count: at -shards 1 the fixer and
	// store families still name their shard, so no family comes unlabeled.
	for _, key := range []string{"ngfix_fix_batches_total", "ngfix_vectors", "ngfix_wal_snapshot_seconds_count"} {
		if _, ok := samples[key]; ok {
			t.Errorf("single-shard exposition has unlabeled family %s", key)
		}
	}

	// -pprof wired the profiling mux next to the API.
	pp, err := http.Get(p.base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}
	p.terminate(t)

	// -metrics=false: the route answers 404 and pprof is absent.
	p2 := startServer(t, bin, "-index", idx, "-metrics=false")
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		r, err := http.Get(p2.base + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with -metrics=false: status %d, want 404", path, r.StatusCode)
		}
	}
	p2.terminate(t)
}

// TestMetricsShardLabels is the sharded-telemetry gate: at -shards 2
// every core (fixer), persist (WAL/store), and admission family on
// /metrics must name its shard. HTTP-layer and process families are the
// only exemptions — they describe the whole process, not a shard.
func TestMetricsShardLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "obs-shard", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 13,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}

	p := startServer(t, bin, "-index", idx,
		"-snapshot-dir", filepath.Join(work, "state"),
		"-shards", "2", "-fix-batch", "16", "-fix-interval", "30s")
	for qi := 0; qi < 4; qi++ {
		var sr server.SearchResponse
		p.post(t, "/v1/search", server.SearchRequest{Vector: d.History.Row(qi), K: server.IntPtr(5), EF: server.IntPtr(20)}, &sr)
	}
	var ir server.InsertResponse
	p.post(t, "/v1/insert", server.InsertRequest{Vector: d.History.Row(0)}, &ir)
	var fr server.FixResponse
	p.post(t, "/v1/fix", struct{}{}, &fr)

	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}

	// Families allowed to omit the shard label: whole-process telemetry.
	processWide := []string{
		"ngfix_search_duration_seconds",
		"ngfix_slow_queries_total",
		"go_", "process_",
	}
	shardless := func(key string) bool {
		for _, p := range processWide {
			if strings.HasPrefix(key, p) {
				return true
			}
		}
		return false
	}
	for key := range samples {
		if shardless(key) {
			continue
		}
		if !strings.Contains(key, `shard="`) {
			t.Errorf("family without shard label at -shards 2: %s", key)
		}
	}

	// Both shards and the shared limiter are individually visible, and the
	// adaptive repair controller (enabled by -fix-interval) exports its
	// per-shard families: mode one-hot, trigger reasons, batch counters.
	for _, key := range []string{
		`ngfix_vectors{shard="0"}`,
		`ngfix_vectors{shard="1"}`,
		`ngfix_wal_snapshot_seconds_count{shard="0"}`,
		`ngfix_wal_snapshot_seconds_count{shard="1"}`,
		`ngfix_admission_admitted_total{shard="all"}`,
		`ngfix_repair_mode{mode="steady",shard="0"}`,
		`ngfix_repair_mode{mode="backoff",shard="1"}`,
		`ngfix_repair_triggers_total{reason="interval",shard="0"}`,
		`ngfix_repair_triggers_total{reason="pressure",shard="1"}`,
		`ngfix_repair_batches_total{shard="0"}`,
		`ngfix_repair_deferred_total{shard="1"}`,
		`ngfix_repair_cost_units_total{shard="0"}`,
		// The reshard coordinator (wired whenever persistence is on)
		// registers under shard="all" and idles until POST /v1/reshard.
		`ngfix_reshard_active{shard="all"}`,
		`ngfix_reshard_state{shard="all",state="idle"}`,
		`ngfix_reshard_rows_streamed_total{shard="all"}`,
		`ngfix_reshard_ops_tailed_total{shard="all"}`,
		`ngfix_reshard_ops_discarded_total{shard="all"}`,
		`ngfix_reshard_cutover_attempts_total{shard="all"}`,
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("missing %s in sharded exposition", key)
		}
	}
	if got := samples[`ngfix_reshard_state{shard="all",state="idle"}`]; got != 1 {
		t.Errorf(`ngfix_reshard_state{state="idle"} = %v before any reshard, want 1`, got)
	}
	if got := samples[`ngfix_reshard_active{shard="all"}`]; got != 0 {
		t.Errorf(`ngfix_reshard_active = %v before any reshard, want 0`, got)
	}
	// The controller has two modes, and no trigger reads the unreachable
	// rate.
	for key := range samples {
		if strings.Contains(key, `mode="eager"`) || strings.Contains(key, `reason="unreachable"`) ||
			strings.HasPrefix(key, "ngfix_repair_unreachable_ewma") {
			t.Errorf("eager repair series in sharded exposition: %s", key)
		}
	}
	p.terminate(t)
}

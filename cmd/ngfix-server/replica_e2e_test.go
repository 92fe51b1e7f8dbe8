package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// scrapeSamples fetches and strictly parses a /metrics exposition.
func scrapeSamples(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
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
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	return samples
}

// saveTestIndex builds a small prebuilt index file for the binary.
func saveTestIndex(t *testing.T, work string, seed int64) (*dataset.Dataset, string) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "replica-e2e", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: seed,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}
	return d, idx
}

// TestMetricsReplicaFamilies is the replica telemetry gate: a
// -replica-of follower of a 2-shard leader must export every
// ngfix_replica_* family for both shards, shard-labeled, and its tail
// must visibly apply the leader's mutations. Named TestMetrics* so the
// CI metrics-contract job (go test -run 'TestMetrics') picks it up.
func TestMetricsReplicaFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	d, idx := saveTestIndex(t, work, 19)

	leader := startServer(t, bin, "-index", idx,
		"-snapshot-dir", filepath.Join(work, "state"), "-shards", "2")
	// startServer blocks on the follower's /readyz: both shard replicas
	// bootstrapped from the leader's startup snapshots.
	fol := startServer(t, bin, "-replica-of", leader.base,
		"-shards", "2", "-replica-poll", "10ms")

	var ins server.InsertResponse
	leader.post(t, "/v1/insert", server.InsertRequest{Vector: d.TestOOD.Row(0)}, &ins)
	waitFor(t, 10*time.Second, "tail applied the insert", func() bool {
		s := scrapeSamples(t, fol.base)
		return s[`ngfix_replica_applied_records_total{shard="0"}`]+
			s[`ngfix_replica_applied_records_total{shard="1"}`] >= 1
	})

	samples := scrapeSamples(t, fol.base)
	for _, fam := range []string{
		"ngfix_replica_ready",
		"ngfix_replica_generation",
		"ngfix_replica_lag_generations",
		"ngfix_replica_lag_bytes",
		"ngfix_replica_lag_records",
		"ngfix_replica_applied_records_total",
		"ngfix_replica_tail_errors_total",
		"ngfix_replica_resyncs_total",
	} {
		for shard := 0; shard < 2; shard++ {
			key := fmt.Sprintf(`%s{shard="%d"}`, fam, shard)
			if _, ok := samples[key]; !ok {
				t.Errorf("missing %s in exposition", key)
			}
		}
	}
	// The sharded-telemetry contract extends to replica families: none may
	// appear without naming its shard.
	for key := range samples {
		if strings.HasPrefix(key, "ngfix_replica_") && !strings.Contains(key, `shard="`) {
			t.Errorf("replica family without shard label: %s", key)
		}
	}
	// Caught-up replicas on a healthy leader: ready, no tail errors.
	for shard := 0; shard < 2; shard++ {
		if v := samples[fmt.Sprintf(`ngfix_replica_ready{shard="%d"}`, shard)]; v != 1 {
			t.Errorf("shard %d replica not ready: %v", shard, v)
		}
		if v := samples[fmt.Sprintf(`ngfix_replica_tail_errors_total{shard="%d"}`, shard)]; v != 0 {
			t.Errorf("shard %d replica tail errors on a healthy leader: %v", shard, v)
		}
	}
	// A leader no longer hosts replicas: its exposition has none.
	for key := range scrapeSamples(t, leader.base) {
		if strings.HasPrefix(key, "ngfix_replica_") {
			t.Errorf("leader exports replica family %s", key)
		}
	}
	fol.terminate(t)
	leader.terminate(t)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaFollowerEndToEnd is the replication acceptance test at the
// binary level: a sharded leader feeds one follower over HTTP
// (-replica-of URL) and one straight off its snapshot directory
// (-replica-of dir, shard count from the manifest). Both bootstrap,
// tail the leader's inserts, answer searches flagged stale with the
// leader's exact results, and refuse mutations.
func TestReplicaFollowerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	d, idx := saveTestIndex(t, work, 23)
	snapDir := filepath.Join(work, "state")

	leader := startServer(t, bin, "-index", idx,
		"-snapshot-dir", snapDir, "-shards", "2")

	// startServer blocks on /readyz, which for a follower means every
	// shard replica bootstrapped — snapshot shipping is covered by getting
	// here at all.
	httpFol := startServer(t, bin, "-replica-of", leader.base,
		"-shards", "2", "-replica-poll", "10ms")
	dirFol := startServer(t, bin, "-replica-of", snapDir, "-replica-poll", "10ms")

	var ins server.InsertResponse
	leader.post(t, "/v1/insert", server.InsertRequest{Vector: d.TestOOD.Row(0)}, &ins)

	q := server.SearchRequest{Vector: d.TestOOD.Row(0), K: server.IntPtr(3), EF: server.IntPtr(30)}
	var want server.SearchResponse
	leader.post(t, "/v1/search", q, &want)
	if want.Stale {
		t.Fatal("healthy leader answered stale")
	}
	if len(want.Results) == 0 || want.Results[0].ID != ins.ID {
		t.Fatalf("leader search missed its own insert: %+v", want.Results)
	}

	for _, fol := range []*serverProc{httpFol, dirFol} {
		// The WAL tail delivers the insert within a few poll cycles.
		var got server.SearchResponse
		waitFor(t, 10*time.Second, "follower caught up with the insert", func() bool {
			got = server.SearchResponse{}
			fol.post(t, "/v1/search", q, &got)
			return len(got.Results) > 0 && got.Results[0].ID == ins.ID
		})
		if !got.Stale {
			t.Fatal("follower answered without the stale flag")
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("follower returned %d results, leader %d", len(got.Results), len(want.Results))
		}
		for i := range got.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("follower result %d = %+v, leader %+v", i, got.Results[i], want.Results[i])
			}
		}

		// Mutations have no route on a follower.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(server.InsertRequest{Vector: d.TestOOD.Row(1)}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(fol.base+"/v1/insert", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("follower insert: status %d, want 404", resp.StatusCode)
		}

		// Follower stats are replication state: shard count (the dir
		// follower resolved it from the manifest, no -shards flag), overall
		// readiness, and one status block per shard replica.
		resp, err = http.Get(fol.base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st server.FollowerStatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards != 2 || !st.Ready || len(st.Replica) != 2 {
			t.Fatalf("follower stats: shards=%d ready=%v replicas=%d, want 2/true/2", st.Shards, st.Ready, len(st.Replica))
		}
	}

	dirFol.terminate(t)
	httpFol.terminate(t)
	leader.terminate(t)
}

// TestFollowerServesPprof: a follower runs the leader's process wiring,
// so -pprof and -slow-query-ms take effect in follower mode too instead
// of being parsed and dropped.
func TestFollowerServesPprof(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	_, idx := saveTestIndex(t, work, 29)
	snapDir := filepath.Join(work, "state")
	leader := startServer(t, bin, "-index", idx, "-snapshot-dir", snapDir)
	fol := startServer(t, bin, "-replica-of", snapDir, "-replica-poll", "10ms",
		"-pprof", "-slow-query-ms", "1")

	resp, err := http.Get(fol.base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("follower /debug/pprof/: status %d\n%s", resp.StatusCode, body)
	}

	fol.terminate(t)
	leader.terminate(t)
}

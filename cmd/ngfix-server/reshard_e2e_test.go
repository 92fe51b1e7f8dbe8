package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// TestLiveReshardEndToEnd is the zero-downtime acceptance test for
// POST /v1/reshard: a 2-shard server keeps answering searches (no 5xx,
// ever) and accepting inserts while it splits live into 4 shards, the
// committed topology survives a restart from the directory alone, and
// the retired parent directories are gone.
func TestLiveReshardEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	const baseN = 600
	d := dataset.Generate(dataset.Config{
		Name: "reshard-e2e", N: baseN, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 17,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(work, "state")

	// -fix-interval makes the repair fleet run, so the cutover also has
	// to quiesce and restart background maintenance on the new topology.
	p := startServer(t, bin, "-index", idx, "-snapshot-dir", snapDir,
		"-shards", "2", "-fix-batch", "16", "-fix-interval", "150ms")
	if st := p.stats(t); st.Shards != 2 {
		t.Fatalf("pre-reshard shards = %d, want 2", st.Shards)
	}

	// Continuous search traffic for the whole reshard. Stale or degraded
	// answers are acceptable mid-cutover; errors and 5xx are not.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var searches, emptyResults int64
	var trafficErr atomic.Value // first failure, as a string
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			req := server.SearchRequest{
				Vector: d.History.Row(i % d.History.Rows()),
				K:      server.IntPtr(3), EF: server.IntPtr(40),
			}
			if err := json.NewEncoder(&buf).Encode(req); err != nil {
				trafficErr.CompareAndSwap(nil, err.Error())
				return
			}
			resp, err := client.Post(p.base+"/v1/search", "application/json", &buf)
			if err != nil {
				trafficErr.CompareAndSwap(nil, "search transport error: "+err.Error())
				return
			}
			var sr server.SearchResponse
			decErr := json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				trafficErr.CompareAndSwap(nil,
					fmt.Sprintf("search status %d during reshard", resp.StatusCode))
				return
			}
			if decErr != nil {
				trafficErr.CompareAndSwap(nil, "search decode: "+decErr.Error())
				return
			}
			atomic.AddInt64(&searches, 1)
			if len(sr.Results) == 0 {
				atomic.AddInt64(&emptyResults, 1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Kick off the split. 202 with the topology change it started.
	resp, err := http.Post(p.base+"/v1/reshard", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr server.ReshardResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/reshard status %d, want 202", resp.StatusCode)
	}
	if err != nil || rr.From != 2 || rr.To != 4 {
		t.Fatalf("reshard response %+v (err %v), want from=2 to=4", rr, err)
	}

	// Inserts keep landing while the split streams and cuts over; each
	// is distinctive enough to be its own nearest neighbor later.
	type insRec struct {
		id  uint32
		vec []float32
	}
	var insertedRecs []insRec
	insertOne := func() {
		t.Helper()
		v := make([]float32, d.Base.Dim())
		v[0] = 3000 + float32(len(insertedRecs))*10
		v[1] = -3000 - float32(len(insertedRecs))*10
		var ir server.InsertResponse
		p.post(t, "/v1/insert", server.InsertRequest{Vector: v}, &ir)
		insertedRecs = append(insertedRecs, insRec{id: ir.ID, vec: v})
	}

	deadline := time.Now().Add(90 * time.Second)
	var final server.StatsResponse
	for {
		st := p.stats(t)
		if st.Reshard != nil {
			switch st.Reshard.State {
			case "done":
				final = st
			case "failed":
				t.Fatalf("reshard failed: %+v\noutput:\n%s", st.Reshard, p.out.String())
			}
		}
		if final.Reshard != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reshard never finished; last stats %+v\noutput:\n%s", st.Reshard, p.out.String())
		}
		insertOne()
		time.Sleep(20 * time.Millisecond)
	}
	// A couple more on the committed 4-shard topology.
	insertOne()
	insertOne()

	close(stop)
	wg.Wait()
	if msg := trafficErr.Load(); msg != nil {
		t.Fatalf("search traffic broke during reshard: %s\noutput:\n%s", msg, p.out.String())
	}
	if n := atomic.LoadInt64(&searches); n == 0 {
		t.Fatal("traffic goroutine completed no searches")
	}
	if n := atomic.LoadInt64(&emptyResults); n > 0 {
		t.Fatalf("%d searches returned no results during reshard", n)
	}

	if final.Shards != 4 || len(final.PerShard) != 4 {
		t.Fatalf("post-reshard stats: shards=%d perShard=%d, want 4/4", final.Shards, len(final.PerShard))
	}
	pr := final.Reshard
	if pr.FromShards != 2 || pr.ToShards != 4 || pr.Active {
		t.Fatalf("finished progress %+v, want inactive 2→4", pr)
	}
	if pr.RowsStreamed < baseN {
		t.Fatalf("rowsStreamed = %d, want >= %d (every parent row lands in a child)", pr.RowsStreamed, baseN)
	}
	if pr.CutoverAttempts < 1 {
		t.Fatalf("cutoverAttempts = %d, want >= 1", pr.CutoverAttempts)
	}

	// Every vector inserted mid-reshard is findable on the new topology.
	for _, rec := range insertedRecs {
		var sr server.SearchResponse
		p.post(t, "/v1/search", server.SearchRequest{Vector: rec.vec, K: server.IntPtr(1), EF: server.IntPtr(40)}, &sr)
		if len(sr.Results) == 0 || sr.Results[0].ID != rec.id {
			t.Fatalf("inserted id %d lost across reshard: %+v", rec.id, sr.Results)
		}
	}

	// The exposition reports the finished run on shard="all", and the
	// per-shard families cover all four children.
	mresp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d err %v", mresp.StatusCode, err)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	metricChecks := []struct {
		key string
		min float64
	}{
		{`ngfix_reshard_state{shard="all",state="done"}`, 1},
		{`ngfix_reshard_rows_streamed_total{shard="all"}`, baseN},
		{`ngfix_reshard_cutover_attempts_total{shard="all"}`, 1},
		{`ngfix_vectors{shard="0"}`, 1},
		{`ngfix_vectors{shard="3"}`, 1},
	}
	for _, c := range metricChecks {
		got, ok := samples[c.key]
		if !ok {
			t.Errorf("missing %s in post-reshard exposition", c.key)
			continue
		}
		if got < c.min {
			t.Errorf("%s = %v, want >= %v", c.key, got, c.min)
		}
	}
	if got, ok := samples[`ngfix_reshard_active{shard="all"}`]; !ok || got != 0 {
		t.Errorf(`ngfix_reshard_active{shard="all"} = %v, %v; want 0 after commit`, got, ok)
	}

	vectorsBefore := p.stats(t).Vectors
	p.terminate(t)

	// Restart from the directory alone: the committed epoch is the only
	// topology recovery can see.
	p2 := startServer(t, bin, "-snapshot-dir", snapDir)
	st2 := p2.stats(t)
	if st2.Shards != 4 {
		t.Fatalf("restart shards = %d, want 4", st2.Shards)
	}
	if st2.Vectors != vectorsBefore {
		t.Fatalf("vectors across restart: %d -> %d", vectorsBefore, st2.Vectors)
	}
	for _, rec := range insertedRecs {
		var sr server.SearchResponse
		p2.post(t, "/v1/search", server.SearchRequest{Vector: rec.vec, K: server.IntPtr(1), EF: server.IntPtr(40)}, &sr)
		if len(sr.Results) == 0 || sr.Results[0].ID != rec.id {
			t.Fatalf("inserted id %d lost across restart: %+v", rec.id, sr.Results)
		}
	}
	p2.terminate(t)

	// On disk: the manifest pins 4 shards at epoch 1, the children live
	// under epoch-1/, and GC reclaimed the retired epoch-0 parents.
	m, ok, err := persist.ReadManifest(nil, snapDir)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if m.Shards != 4 || m.Epoch != 1 {
		t.Fatalf("manifest %+v, want 4 shards at epoch 1", m)
	}
	for i := 0; i < 4; i++ {
		dir := persist.ShardDirAt(snapDir, 1, i)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("child shard dir %s missing: %v", dir, err)
		}
	}
	if _, err := os.Stat(persist.EpochDir(snapDir, 0)); !os.IsNotExist(err) {
		t.Fatalf("retired epoch-0 parents not reclaimed (err %v)", err)
	}
}

// TestOfflineReshardCLI covers the maintenance-window path: -reshard
// doubles a stopped server's directory in place and exits, and the next
// plain start serves the new topology with nothing lost.
func TestOfflineReshardCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "reshard-cli", N: 300, NHist: 40, NTest: 5,
		Dim: 8, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 23,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(work, "state")

	// Seed a 2-shard tree, mutate it, and stop cleanly.
	p := startServer(t, bin, "-index", idx, "-snapshot-dir", snapDir, "-shards", "2", "-fix-batch", "16")
	v := make([]float32, d.Base.Dim())
	v[0] = 5000
	var ir server.InsertResponse
	p.post(t, "/v1/insert", server.InsertRequest{Vector: v}, &ir)
	before := p.stats(t)
	p.terminate(t)

	// Without a directory the flag is an error, not a no-op.
	if out, err := exec.Command(bin, "-reshard").CombinedOutput(); err == nil {
		t.Fatalf("-reshard without -snapshot-dir succeeded:\n%s", out)
	}
	// Nor does a fresh directory get laid out at some shard count by a
	// split that has nothing to split.
	fresh := filepath.Join(work, "fresh")
	if out, err := exec.Command(bin, "-reshard", "-snapshot-dir", fresh).CombinedOutput(); err == nil {
		t.Fatalf("-reshard on a fresh directory succeeded:\n%s", out)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("-reshard created the fresh directory %s (err %v)", fresh, err)
	}

	if out, err := exec.Command(bin, "-reshard", "-snapshot-dir", snapDir).CombinedOutput(); err != nil {
		t.Fatalf("-reshard: %v\n%s", err, out)
	}

	// The directory alone now describes a 4-shard tree.
	p2 := startServer(t, bin, "-snapshot-dir", snapDir)
	st := p2.stats(t)
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("post-CLI-reshard: shards=%d perShard=%d, want 4/4", st.Shards, len(st.PerShard))
	}
	if st.Vectors != before.Vectors || st.Live != before.Live {
		t.Fatalf("vector counts changed across offline reshard: %d/%d -> %d/%d",
			before.Vectors, before.Live, st.Vectors, st.Live)
	}
	var sr server.SearchResponse
	p2.post(t, "/v1/search", server.SearchRequest{Vector: v, K: server.IntPtr(1), EF: server.IntPtr(40)}, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != ir.ID {
		t.Fatalf("inserted id %d lost across offline reshard: %+v", ir.ID, sr.Results)
	}
	p2.terminate(t)
}

// TestUnreadableLayoutRefused: the server and -reshard refuse a snapshot
// directory written in a layout this binary does not read, naming it,
// before anything in it is resolved, written, removed or renamed — even
// with -base on the command line, which must not rebuild over it.
func TestUnreadableLayoutRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	base := filepath.Join(work, "base.ngfx")
	if err := dataset.SaveMatrix(base, vec.NewMatrix(4, 2)); err != nil {
		t.Fatal(err)
	}
	snap, wal := "snapshot-0000000000000001.ngsnap", "oplog-0000000000000001.wal"
	for name, files := range map[string]map[string]string{
		"manifest-less root": {snap: "snap", wal: "wal"},
		"v1 manifest":        {"MANIFEST": `{"version":1,"shards":2}`, "shard-0/" + snap: "s0", "shard-1/" + snap: "s1"},
		"v2 manifest":        {"MANIFEST": `{"version":2,"shards":4,"epoch":1}`, "epoch-1/shard-0/" + snap: "s0"},
		"v2 manifest with reshard intent": {
			"MANIFEST":        `{"version":2,"shards":2}`,
			"RESHARD":         `{"version":1,"fromShards":2,"toShards":4,"fromEpoch":0,"toEpoch":1}`,
			"shard-0/" + snap: "s0", "epoch-1/shard-0/" + snap: "staged",
		},
		"manifest-less epoch tree": {"epoch-0/shard-0/" + snap: "s0", "epoch-0/shard-1/" + snap: "s1"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "state")
			for rel, body := range files {
				path := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirBytes(t, dir)
			for _, argv := range [][]string{
				{"-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)), "-snapshot-dir", dir, "-base", base},
				{"-reshard", "-snapshot-dir", dir},
			} {
				// A binary that accepts the directory may serve forever; the
				// timeout turns that into a failure instead of a hang.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				out, err := exec.CommandContext(ctx, bin, argv...).CombinedOutput()
				cancel()
				if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
					t.Fatalf("%v: err %v, want exit status 1; output:\n%s", argv, err, out)
				}
				if !bytes.Contains(out, []byte(dir)) {
					t.Fatalf("%v: refusal does not name %s:\n%s", argv, dir, out)
				}
				if after := dirBytes(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("%v touched the tree:\nbefore %v\nafter  %v", argv, before, after)
				}
			}
		})
	}
}

// dirBytes maps every entry under root to its contents (directories to
// "/").
func dirBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			tree[rel] = "/"
			return nil
		}
		b, err := os.ReadFile(path)
		tree[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// buildServerBinary compiles this command into dir and returns the path.
func buildServerBinary(t *testing.T, dir string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(dir, "ngfix-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePort grabs a port from the kernel and releases it for the child
// process to claim.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

type serverProc struct {
	cmd  *exec.Cmd
	base string
	out  *bytes.Buffer
}

func startServer(t *testing.T, bin string, args ...string) *serverProc {
	t.Helper()
	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	var out bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, out: &out}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// Wait for /readyz — the binary only turns ready once the index is
	// loaded (or recovered) and the listener is up.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready; output:\n%s", out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// terminate sends SIGTERM and requires a clean exit within the drain
// window.
func (p *serverProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited non-zero after SIGTERM: %v\noutput:\n%s", err, p.out.String())
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("server did not exit after SIGTERM; output:\n%s", p.out.String())
	}
}

func (p *serverProc) post(t *testing.T, path string, body interface{}, out interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func (p *serverProc) stats(t *testing.T) server.StatsResponse {
	t.Helper()
	resp, err := http.Get(p.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGracefulShutdownAndRecovery is the operational acceptance test:
// serve traffic, learn fix edges from it, mutate the index, SIGTERM the
// process (clean exit required), then restart from nothing but the
// snapshot directory and verify the learned edges and the mutation
// survived.
func TestGracefulShutdownAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "e2e", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 9,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(work, "state")

	// First life: seed from -index, learn from traffic, mutate.
	p := startServer(t, bin, "-index", idx, "-snapshot-dir", snapDir, "-fix-batch", "16")
	for qi := 0; qi < 24; qi++ {
		var sr server.SearchResponse
		p.post(t, "/v1/search", server.SearchRequest{Vector: d.History.Row(qi % d.History.Rows()), K: server.IntPtr(5), EF: server.IntPtr(20)}, &sr)
		if len(sr.Results) == 0 {
			t.Fatal("search returned nothing")
		}
	}
	var fr server.FixResponse
	p.post(t, "/v1/fix", struct{}{}, &fr)
	if fr.Queries == 0 {
		t.Fatal("fix batch processed no queries")
	}
	var ins server.InsertResponse
	p.post(t, "/v1/insert", server.InsertRequest{Vector: d.TestOOD.Row(0)}, &ins)
	var del server.DeleteResponse
	p.post(t, "/v1/delete", server.DeleteRequest{ID: 7}, &del)
	if !del.Deleted {
		t.Fatal("delete failed")
	}
	before := p.stats(t)
	if before.ExtraEdges == 0 {
		t.Fatal("no extra edges learned; nothing to verify across restart")
	}
	p.terminate(t)

	// Second life: nothing but the snapshot directory.
	p2 := startServer(t, bin, "-snapshot-dir", snapDir, "-fix-batch", "16")
	after := p2.stats(t)
	if after.ExtraEdges != before.ExtraEdges {
		t.Fatalf("learned fix edges lost across restart: %d -> %d", before.ExtraEdges, after.ExtraEdges)
	}
	if after.Vectors != before.Vectors || after.Live != before.Live {
		t.Fatalf("vector counts differ across restart: %d/%d -> %d/%d",
			before.Vectors, before.Live, after.Vectors, after.Live)
	}
	if after.BaseEdges != before.BaseEdges {
		t.Fatalf("base edges differ across restart: %d -> %d", before.BaseEdges, after.BaseEdges)
	}
	// The recovered index serves, and the restored state is still mutable.
	var sr server.SearchResponse
	p2.post(t, "/v1/search", server.SearchRequest{Vector: d.TestOOD.Row(0), K: server.IntPtr(1), EF: server.IntPtr(20)}, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != ins.ID {
		t.Fatalf("recovered index lost the inserted vector: %+v", sr.Results)
	}
	p2.post(t, "/v1/insert", server.InsertRequest{Vector: d.TestOOD.Row(1)}, &ins)
	p2.terminate(t)

	// Third life: the post-restart insert survived the second shutdown.
	p3 := startServer(t, bin, "-snapshot-dir", snapDir)
	final := p3.stats(t)
	if final.Vectors != after.Vectors+1 {
		t.Fatalf("second-life insert lost: %d vectors, want %d", final.Vectors, after.Vectors+1)
	}
	p3.terminate(t)
}

// TestShardedServeAndRecovery runs the binary at -shards 2: the state
// directory grows shard-<i>/ subdirectories plus a MANIFEST pinning the
// count, stats expose the per-shard breakdown, and a restart with no
// -shards flag at all recovers the same sharded index — the directory,
// not the command line, is the source of truth for the shard count.
func TestShardedServeAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "shard-e2e", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 17,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(work, "state")

	// First life: reshard the prebuilt index into two shards and serve.
	p := startServer(t, bin, "-index", idx, "-snapshot-dir", snapDir,
		"-shards", "2", "-fix-batch", "16")
	for _, path := range []string{"MANIFEST", "shard-0", "shard-1"} {
		if _, err := os.Stat(filepath.Join(snapDir, path)); err != nil {
			t.Fatalf("sharded state layout missing %s: %v", path, err)
		}
	}
	for qi := 0; qi < 8; qi++ {
		var sr server.SearchResponse
		p.post(t, "/v1/search", server.SearchRequest{Vector: d.History.Row(qi), K: server.IntPtr(5), EF: server.IntPtr(30)}, &sr)
		if len(sr.Results) != 5 {
			t.Fatalf("scatter-gather search returned %d results", len(sr.Results))
		}
	}
	var fr server.FixResponse
	p.post(t, "/v1/fix", struct{}{}, &fr)
	if fr.Queries == 0 {
		t.Fatal("fix batch processed no queries")
	}
	var ins server.InsertResponse
	p.post(t, "/v1/insert", server.InsertRequest{Vector: d.TestOOD.Row(0)}, &ins)
	var del server.DeleteResponse
	p.post(t, "/v1/delete", server.DeleteRequest{ID: 7}, &del)
	if !del.Deleted {
		t.Fatal("delete failed")
	}
	before := p.stats(t)
	if before.Shards != 2 || len(before.PerShard) != 2 {
		t.Fatalf("stats: shards=%d perShard=%d, want 2/2", before.Shards, len(before.PerShard))
	}
	sumVec := 0
	for _, ps := range before.PerShard {
		sumVec += ps.Vectors
	}
	if sumVec != before.Vectors {
		t.Fatalf("per-shard vectors sum %d != aggregate %d", sumVec, before.Vectors)
	}
	p.terminate(t)

	// Second life: no -shards flag — the MANIFEST pins the count.
	p2 := startServer(t, bin, "-snapshot-dir", snapDir, "-fix-batch", "16")
	after := p2.stats(t)
	if after.Shards != 2 {
		t.Fatalf("restart did not honor the manifest: %d shards", after.Shards)
	}
	if after.Vectors != before.Vectors || after.Live != before.Live {
		t.Fatalf("vector counts differ across restart: %d/%d -> %d/%d",
			before.Vectors, before.Live, after.Vectors, after.Live)
	}
	if after.ExtraEdges != before.ExtraEdges {
		t.Fatalf("learned fix edges lost across restart: %d -> %d", before.ExtraEdges, after.ExtraEdges)
	}
	var sr server.SearchResponse
	p2.post(t, "/v1/search", server.SearchRequest{Vector: d.TestOOD.Row(0), K: server.IntPtr(1), EF: server.IntPtr(30)}, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != ins.ID {
		t.Fatalf("recovered sharded index lost the inserted vector: %+v", sr.Results)
	}
	p2.terminate(t)

	// A conflicting explicit flag is rejected instead of silently
	// rerouting every id.
	port := freePort(t)
	out, err := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-snapshot-dir", snapDir, "-shards", "3").CombinedOutput()
	if err == nil {
		t.Fatalf("server started with -shards 3 against a 2-shard directory; output:\n%s", out)
	}
}

// TestOverloadFlags wires the admission flags end to end: the configured
// capacity and queue bound show up in /v1/stats, searches are admitted
// and counted, and -max-inflight=0 turns the governor off entirely.
func TestOverloadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "flags", N: 300, NHist: 20, NTest: 5,
		Dim: 8, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 11,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}

	p := startServer(t, bin, "-index", idx,
		"-max-inflight", "4", "-queue-depth", "3", "-search-timeout", "1s", "-ef-floor", "8")
	var sr server.SearchResponse
	p.post(t, "/v1/search", server.SearchRequest{Vector: d.TestOOD.Row(0), K: server.IntPtr(5), EF: server.IntPtr(30)}, &sr)
	if len(sr.Results) != 5 || sr.Truncated || sr.Clamped {
		t.Fatalf("idle search degraded: %+v", sr)
	}
	st := p.stats(t)
	if st.Admission == nil {
		t.Fatal("admission stats missing with -max-inflight set")
	}
	if st.Admission.Capacity != 4 || st.Admission.QueueDepth != 3 {
		t.Fatalf("flags not wired: capacity %d queueDepth %d", st.Admission.Capacity, st.Admission.QueueDepth)
	}
	if st.Admission.Admitted == 0 {
		t.Fatal("search not accounted by admission")
	}
	p.terminate(t)

	// Opting out: no governor, no admission section.
	p2 := startServer(t, bin, "-index", idx, "-max-inflight", "0")
	p2.post(t, "/v1/search", server.SearchRequest{Vector: d.TestOOD.Row(1), K: server.IntPtr(3), EF: server.IntPtr(30)}, &sr)
	if st := p2.stats(t); st.Admission != nil {
		t.Fatalf("admission stats present with -max-inflight=0: %+v", st.Admission)
	}
	p2.terminate(t)
}

package main

import (
	"path/filepath"
	"strings"
	"testing"

	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// TestPQServeAndRecovery is the memory-tiered serving acceptance test at
// the binary level: start with -pq (training a quantizer at boot), serve
// fused searches that report adc work, mutate, SIGTERM, then restart from
// the snapshot directory alone and verify the quantizer came back from
// the sidecar ("recovered", not retrained) with the compressed view still
// in step with the vectors — including the pre-shutdown insert.
func TestPQServeAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)

	d := dataset.Generate(dataset.Config{
		Name: "e2e-pq", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 9,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	idx := filepath.Join(work, "base.ngig")
	if err := g.Save(idx); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(work, "state")

	// First life: train the quantizer at boot, serve fused, insert.
	p := startServer(t, bin, "-index", idx, "-snapshot-dir", snapDir, "-pq", "-pq-ks", "32")
	if !strings.Contains(p.out.String(), "pq serving trained") {
		t.Fatalf("first life did not train a quantizer; output:\n%s", p.out.String())
	}
	var sr server.SearchResponse
	p.post(t, "/v1/search", server.SearchRequest{Vector: d.TestOOD.Row(1), K: server.IntPtr(5), EF: server.IntPtr(30)}, &sr)
	if len(sr.Results) != 5 || sr.ADC == 0 {
		t.Fatalf("fused search over the binary: %d results, adc=%d", len(sr.Results), sr.ADC)
	}
	var ins server.InsertResponse
	p.post(t, "/v1/insert", server.InsertRequest{Vector: d.TestOOD.Row(0)}, &ins)
	before := p.stats(t)
	if before.PQ == nil || before.PQ.Rows != before.Vectors {
		t.Fatalf("pq stats out of step before shutdown: %+v (vectors %d)", before.PQ, before.Vectors)
	}
	p.terminate(t)

	// The final snapshot must carry the quantizer sidecar — that is what
	// makes the next life an attach instead of a retrain.
	sidecars, err := filepath.Glob(filepath.Join(snapDir, "pq-*.ngpq"))
	if err != nil || len(sidecars) == 0 {
		t.Fatalf("no pq sidecar in %s after shutdown (err %v)", snapDir, err)
	}

	// Second life: nothing but the snapshot directory. The quantizer must
	// attach from the sidecar, and the compressed view must cover the
	// insert from the first life.
	p2 := startServer(t, bin, "-snapshot-dir", snapDir, "-pq", "-pq-ks", "32")
	if !strings.Contains(p2.out.String(), "pq serving recovered") {
		t.Fatalf("second life retrained instead of attaching the sidecar; output:\n%s", p2.out.String())
	}
	after := p2.stats(t)
	if after.PQ == nil {
		t.Fatal("pq stats block missing after recovery")
	}
	if after.PQ.Rows != after.Vectors || after.Vectors != before.Vectors {
		t.Fatalf("recovered compressed view out of step: pq rows %d, vectors %d (want %d)",
			after.PQ.Rows, after.Vectors, before.Vectors)
	}
	var got server.SearchResponse
	p2.post(t, "/v1/search", server.SearchRequest{Vector: d.TestOOD.Row(0), K: server.IntPtr(1), EF: server.IntPtr(30)}, &got)
	if len(got.Results) == 0 || got.Results[0].ID != ins.ID {
		t.Fatalf("recovered fused search lost the inserted vector: %+v (want id %d)", got.Results, ins.ID)
	}
	if got.ADC == 0 {
		t.Fatal("recovered search did not run the fused path")
	}
	p2.terminate(t)
}

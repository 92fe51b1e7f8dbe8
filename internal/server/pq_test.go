package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// newPQServer is newTestServer with compressed serving enabled on the
// fixer, the way cmd/ngfix-server wires -pq.
func newPQServer(t *testing.T) (*httptest.Server, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "srv-pq", N: 500, NHist: 100, NTest: 30,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 50, PrepEF: 80})
	if err := fixer.EnablePQ(core.PQConfig{KS: 32}); err != nil {
		t.Fatal(err)
	}
	s := New(fixer)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, d
}

// TestPQServing pins the HTTP contract of fused serving: searches report
// their compressed navigation work in "adc" (with "ndc" reduced to the
// exact rerank), /v1/stats grows a pq block with honest resident-memory
// accounting, and inserts keep the compressed view consistent.
func TestPQServing(t *testing.T) {
	ts, d := newPQServer(t)

	var sr SearchResponse
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(5), EF: IntPtr(40)}, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if len(sr.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(sr.Results))
	}
	if sr.ADC == 0 {
		t.Fatal("fused search reported no adc work")
	}
	if sr.NDC == 0 || sr.NDC > 4*5 {
		t.Fatalf("rerank ndc = %d, want in (0, 20]", sr.NDC)
	}

	var ir InsertResponse
	post(t, ts.URL+"/v1/insert", InsertRequest{Vector: d.TestOOD.Row(1)}, &ir)
	var after SearchResponse
	post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(1), EF: IntPtr(40)}, &after)
	if len(after.Results) == 0 || after.Results[0].ID != ir.ID {
		t.Fatalf("fused search did not surface the inserted vector (got %+v, want id %d)", after.Results, ir.ID)
	}

	var st StatsResponse
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeBody(sresp, &st); err != nil {
		t.Fatal(err)
	}
	if st.PQ == nil {
		t.Fatal("stats missing the pq block with compressed serving on")
	}
	if st.PQ.Searches < 2 || st.PQ.ADCLookups == 0 || st.PQ.RerankNDC == 0 {
		t.Fatalf("pq served counters: %+v", st.PQ)
	}
	if st.PQ.Rows != st.Vectors {
		t.Fatalf("pq rows %d out of step with vectors %d", st.PQ.Rows, st.Vectors)
	}
	if st.PQ.ResidentBytes >= st.PQ.FullVectorBytes {
		t.Fatalf("resident %d not below full-precision %d", st.PQ.ResidentBytes, st.PQ.FullVectorBytes)
	}
}

// TestPQAbsentFromLegacyPayloads pins byte-stability: without PQ serving,
// /v1/search has no "adc" field and /v1/stats no "pq" block — clients of
// a full-precision server see payloads identical to before PQ existed.
func TestPQAbsentFromLegacyPayloads(t *testing.T) {
	ts, d := newTestServer(t) // no EnablePQ
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(3), EF: IntPtr(30)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"adc"`) {
		t.Fatalf("search body leaks an adc field on full-precision serving:\n%s", body)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sbody, _ := io.ReadAll(sresp.Body)
	if strings.Contains(string(sbody), `"pq"`) {
		t.Fatalf("stats body leaks a pq block on full-precision serving:\n%s", sbody)
	}
}

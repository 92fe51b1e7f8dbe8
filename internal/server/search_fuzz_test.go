package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// FuzzServeSearch drives POST /v1/search end to end through ServeHTTP on
// a fixed two-shard index with tombstones. Whatever the body, the answer
// is 200, 400, 413, 429 or 503; a 200 that is not truncated carries
// min(k, live rows) hits with finite distances, live and distinct ids, in
// ascending distance order.
func FuzzServeSearch(f *testing.F) {
	const rows, dim = 300, 4
	d := dataset.Generate(dataset.Config{
		Name: "fuzz-search", N: rows, NHist: 1, NTest: 4,
		Dim: dim, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 41,
	})
	parts := shard.Partition(d.Base, 2)
	fixers := make([]*core.OnlineFixer, len(parts))
	for i, p := range parts {
		g := hnsw.Build(p, hnsw.Config{M: 6, EFConstruction: 40, Metric: vec.L2}).Bottom()
		fixers[i] = core.NewOnlineFixer(core.New(g, core.Options{LEx: 8}), core.OnlineConfig{BatchSize: 16})
	}
	group, err := shard.NewGroup(fixers)
	if err != nil {
		f.Fatal(err)
	}
	s := NewSharded(group)
	s.Admission = admission.New(admission.Config{Capacity: 64})
	s.MaxBodyBytes = 1 << 12
	s.SetReady(true)
	deleted := map[uint32]bool{}
	for id := uint32(0); id < rows; id += 7 {
		if ok, err := group.DeleteChecked(id); err != nil || !ok {
			f.Fatalf("delete %d: %v %v", id, ok, err)
		}
		deleted[id] = true
	}
	live := rows - len(deleted)

	q := jsonVector(d.TestOOD.Row(0))
	for _, seed := range []string{
		`{"vector":` + q + `,"k":10,"ef":64}`, // the serving benchmark's body shape
		`{"vector":` + q + `}`,
		`{"vector":[3e38,0,0,0],"k":10,"ef":64}`,
		`{"vector":[3e38,3e38,3e38,3e38]}`,
		`{"vector":[NaN,0,0,0]}`,
		`{"vector":[Infinity,0,0,0]}`,
		`{"vector":[1e39,0,0,0]}`,
		`{"vector":` + q + `,"k":0}`,
		`{"vector":` + q + `,"k":5,"ef":5000}`,
		`{"vector":` + q + `,"k":400}`,
		`{"vector":` + q + `,"k":300,"ef":300}`,
		`{"vector":[1,2,3]}`,
		`{"vector":` + q + `,"k":10,"ef":64}x`,
		`{}`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		var req SearchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		var resp SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: undecodable answer %s: %v", body, rec.Body, err)
		}
		if resp.Truncated {
			return
		}
		k := s.DefaultK
		if req.K != nil {
			k = *req.K
		}
		if want := min(k, live); len(resp.Results) != want {
			t.Fatalf("body %q: %d hits, want min(k=%d, live=%d)", body, len(resp.Results), k, live)
		}
		seen := map[uint32]bool{}
		for i, h := range resp.Results {
			switch {
			case math.IsNaN(float64(h.Dist)) || math.IsInf(float64(h.Dist), 0):
				t.Fatalf("body %q: hit %d distance %v", body, i, h.Dist)
			case h.ID >= rows || deleted[h.ID]:
				t.Fatalf("body %q: hit %d id %d is not live", body, i, h.ID)
			case seen[h.ID]:
				t.Fatalf("body %q: hit %d repeats id %d", body, i, h.ID)
			case i > 0 && h.Dist < resp.Results[i-1].Dist:
				t.Fatalf("body %q: hits out of order at %d: %v after %v", body, i, h.Dist, resp.Results[i-1].Dist)
			}
			seen[h.ID] = true
		}
	})
}

package server

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// TestPolicyAbsentFromLegacyPayloads pins the bytes a server answers to
// a fixed exchange — stats, searches with explicit and default k/ef, a
// repeated query, a bad request, an insert, a delete and a fix — at one
// and two shards behind the admission controller the binary runs by
// default. The pins were recorded before the serving policy layer was
// removed, so they show the removal left every /v1/search and /v1/stats
// byte in place; no answer carries a "policy" key. Pinned per kernel arm
// (the arms round distances differently); an arm with no pin only logs
// what it got.
func TestPolicyAbsentFromLegacyPayloads(t *testing.T) {
	defer vec.SetSIMD(true)
	pinned := map[string]map[int]string{
		"avx2":   {1: "0x89ccfc68f6fbd3cd", 2: "0x1927657cb824d03c"},
		"scalar": {1: "0xb706b354f0778d88", 2: "0x7fdc09c90c3f10e3"},
	}
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		for _, shards := range []int{1, 2} {
			exchange := legacyExchange(t, shards)
			if strings.Contains(exchange, `"policy"`) {
				t.Fatalf("%d shards: an answer carries a policy key:\n%s", shards, exchange)
			}
			h := fnv.New64a()
			h.Write([]byte(exchange))
			got := fmt.Sprintf("%#016x", h.Sum64())
			want := pinned[vec.KernelName()][shards]
			if want == "" {
				t.Logf("no pin for kernel %s at %d shards: got %s", vec.KernelName(), shards, got)
				continue
			}
			if got != want {
				t.Errorf("%s, %d shards: exchange hash %s, pinned %s; exchange:\n%s", vec.KernelName(), shards, got, want, exchange)
			}
		}
	}
}

// legacyExchange runs the fixed request sequence against a fresh server
// and returns every request and its status and body, in order.
func legacyExchange(t *testing.T, shards int) string {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "legacy", N: 500, NHist: 100, NTest: 30,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	parts := shard.Partition(d.Base, shards)
	fixers := make([]*core.OnlineFixer, len(parts))
	for i, p := range parts {
		g := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
		ix := core.New(g, core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
		fixers[i] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 50, PrepEF: 80})
	}
	group, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(group)
	s.Admission = admission.New(admission.Config{Capacity: 64})
	s.SetReady(true)

	q := func(i int) string { return jsonVector(d.TestOOD.Row(i)) }
	steps := []struct{ method, path, body string }{
		{http.MethodGet, "/v1/stats", ""},
		{http.MethodPost, "/v1/search", `{"vector":` + q(0) + `,"k":5,"ef":30}`},
		{http.MethodPost, "/v1/search", `{"vector":` + q(1) + `}`},
		{http.MethodPost, "/v1/search", `{"vector":` + q(2) + `,"k":1,"ef":10}`},
		{http.MethodPost, "/v1/search", `{"vector":` + q(0) + `,"k":5,"ef":30}`},
		{http.MethodPost, "/v1/search", `{"vector":` + q(3) + `,"k":0}`},
		{http.MethodPost, "/v1/insert", `{"vector":` + jsonVector(d.History.Row(0)) + `}`},
		{http.MethodPost, "/v1/search", `{"vector":` + jsonVector(d.History.Row(0)) + `,"k":3,"ef":20}`},
		{http.MethodPost, "/v1/delete", `{"id":500}`},
		{http.MethodPost, "/v1/fix", ""},
		{http.MethodPost, "/v1/search", `{"vector":` + q(4) + `,"k":10,"ef":40}`},
		{http.MethodGet, "/v1/stats", ""},
	}
	var out strings.Builder
	for _, st := range steps {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(st.method, st.path, strings.NewReader(st.body)))
		fmt.Fprintf(&out, "%s %s %s\n%d %s\n", st.method, st.path, st.body, rec.Code, rec.Body.Bytes())
	}
	return out.String()
}

// jsonVector spells v as a JSON array in the shortest form that parses
// back to the same float32s, as the serving benchmark's client does.
func jsonVector(v []float32) string {
	b := []byte{'['}
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return string(append(b, ']'))
}

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/vec"
)

// TestRetryAfterScalesWithPressure pins the backoff-hint policy: the
// base is one server budget, the hint grows monotonically with queue
// pressure up to 4× at a full queue, is clamped to [1, 120] seconds,
// and tolerates out-of-range pressure inputs.
func TestRetryAfterScalesWithPressure(t *testing.T) {
	s := &Server{SearchTimeout: 2 * time.Second}
	if got := s.retryAfterSeconds(0); got != 2 {
		t.Fatalf("retry at pressure 0 = %d, want base 2", got)
	}
	if got := s.retryAfterSeconds(1); got != 8 {
		t.Fatalf("retry at pressure 1 = %d, want 4x base = 8", got)
	}
	prev := 0
	for p := 0.0; p <= 1.0; p += 0.05 {
		got := s.retryAfterSeconds(p)
		if got < 1 {
			t.Fatalf("retry at pressure %.2f = %d, below 1s floor", p, got)
		}
		if got < prev {
			t.Fatalf("retry not monotone: %d after %d at pressure %.2f", got, prev, p)
		}
		prev = got
	}

	// No budget → 1s base, still pressure-scaled.
	s0 := &Server{}
	if got := s0.retryAfterSeconds(0); got != 1 {
		t.Fatalf("no-budget base = %d, want 1", got)
	}
	if got := s0.retryAfterSeconds(1); got != 4 {
		t.Fatalf("no-budget full-queue = %d, want 4", got)
	}

	// Huge budget → capped.
	sBig := &Server{SearchTimeout: 90 * time.Second}
	if got := sBig.retryAfterSeconds(1); got != maxRetryAfterSeconds {
		t.Fatalf("retry = %d, want cap %d", got, maxRetryAfterSeconds)
	}

	// Garbage pressure inputs clamp instead of exploding.
	if got := s.retryAfterSeconds(-3); got != 2 {
		t.Fatalf("negative pressure = %d, want base 2", got)
	}
	if got := s.retryAfterSeconds(7); got != 8 {
		t.Fatalf("pressure > 1 = %d, want 8", got)
	}
}

// TestRetryAfterSecondsTable pins the hint at every policy boundary:
// missing/sub-second/fractional budgets, the pressure clamp edges, and
// the exact point where the 120s cap starts to bite (30s × 4 = 120).
func TestRetryAfterSecondsTable(t *testing.T) {
	cases := []struct {
		name     string
		timeout  time.Duration
		pressure float64
		want     int
	}{
		{"no budget, idle", 0, 0, 1},
		{"no budget, full queue", 0, 1, 4},
		{"no budget, negative pressure", 0, -1, 1},
		{"no budget, overshoot pressure", 0, 2, 4},
		{"sub-second budget rounds up", 500 * time.Millisecond, 0, 1},
		{"sub-second budget, full queue", 500 * time.Millisecond, 1, 4},
		{"fractional budget ceils to 2", 1500 * time.Millisecond, 0, 2},
		{"half pressure", time.Second, 0.5, 3},         // ceil(1 × 2.5)
		{"quarter pressure", 2 * time.Second, 0.25, 4}, // ceil(2 × 1.75)
		{"cap boundary exact", 30 * time.Second, 1, maxRetryAfterSeconds},
		{"just past cap boundary", 31 * time.Second, 1, maxRetryAfterSeconds},
		{"base alone above cap", 200 * time.Second, 0, maxRetryAfterSeconds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{SearchTimeout: tc.timeout}
			if got := s.retryAfterSeconds(tc.pressure); got != tc.want {
				t.Fatalf("retryAfterSeconds(timeout=%v, pressure=%v) = %d, want %d",
					tc.timeout, tc.pressure, got, tc.want)
			}
		})
	}
}

// TestMetricsEndpoint is the observability e2e: a fully wired server
// (fixer telemetry, WAL, admission, slow-query log) serves traffic, and
// /metrics must answer a valid Prometheus exposition whose search,
// fix-batch, WAL, and admission families all moved.
func TestMetricsEndpoint(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "obs", N: 500, NHist: 100, NTest: 30,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})

	reg := obs.NewRegistry()
	st, err := persist.Open(t.TempDir(), persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st.RegisterMetrics(reg)
	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 50, PrepEF: 80, WAL: st, Metrics: reg})
	if err := fixer.Snapshot(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var slowLines []string
	s := New(fixer)
	s.Admission = admission.New(admission.Config{Capacity: 8})
	s.SnapshotFunc = fixer.Snapshot
	s.SlowQueries = &obs.SlowQueryLog{
		Threshold: time.Nanosecond, // everything is slow: exercises the log path
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			slowLines = append(slowLines, format)
			mu.Unlock()
		},
	}
	s.EnableMetrics(reg)
	obs.RegisterProcessMetrics(reg)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	const searches = 4
	for i := 0; i < searches; i++ {
		var out SearchResponse
		if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(i), K: IntPtr(5), EF: IntPtr(30)}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d", resp.StatusCode)
		}
	}
	var ins InsertResponse
	if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: d.TestOOD.Row(0)}, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	var fix FixResponse
	if resp := post(t, ts.URL+"/v1/fix", struct{}{}, &fix); resp.StatusCode != http.StatusOK {
		t.Fatalf("fix status %d", resp.StatusCode)
	}
	if fix.Queries != searches {
		t.Fatalf("fix consumed %d queries, want %d", fix.Queries, searches)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}

	// Search families (HTTP layer + fixer).
	if got := samples[`ngfix_search_duration_seconds_count{outcome="ok"}`]; got != searches {
		t.Fatalf(`search duration count (ok) = %v, want %d`, got, searches)
	}
	if got := samples["ngfix_search_ndc_count"]; got < searches {
		t.Fatalf("search ndc count = %v, want >= %d", got, searches)
	}
	// Fix-batch family.
	if got := samples["ngfix_fix_batches_total"]; got != 1 {
		t.Fatalf("fix batches = %v, want 1", got)
	}
	if got := samples["ngfix_fix_queries_total"]; got != searches {
		t.Fatalf("fix queries = %v, want %d", got, searches)
	}
	// WAL family: the insert and the fix batch both appended; the startup
	// snapshot observed once.
	if got := samples["ngfix_wal_append_seconds_count"]; got < 2 {
		t.Fatalf("wal append count = %v, want >= 2", got)
	}
	if got := samples["ngfix_wal_snapshot_seconds_count"]; got != 1 {
		t.Fatalf("wal snapshot count = %v, want 1", got)
	}
	// Admission family: every request above was admitted and served. One
	// limiter guards all shards, so its families carry shard="all".
	if got := samples[`ngfix_admission_admitted_total{shard="all"}`]; got < searches+2 {
		t.Fatalf("admitted = %v, want >= %d", got, searches+2)
	}
	if got := samples[`ngfix_admission_shed_total{shard="all"}`]; got != 0 {
		t.Fatalf("shed = %v, want 0", got)
	}
	// Process family.
	if _, ok := samples["go_goroutines"]; !ok {
		t.Fatal("go_goroutines missing")
	}

	// Slow-query log saw every search, and the counter agrees.
	mu.Lock()
	lines := len(slowLines)
	format := ""
	if lines > 0 {
		format = slowLines[0]
	}
	mu.Unlock()
	if lines != searches {
		t.Fatalf("slow-query lines = %d, want %d", lines, searches)
	}
	if !strings.HasPrefix(format, "slow-query id=") {
		t.Fatalf("slow-query line format %q", format)
	}
	if got := samples["ngfix_slow_queries_total"]; got != searches {
		t.Fatalf("slow queries total = %v, want %d", got, searches)
	}

	// /v1/stats serializes the full admission ledger, reclaimed included.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	statsBody, err := io.ReadAll(statsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(statsBody), `"reclaimed"`) {
		t.Fatalf("stats missing reclaimed counter: %s", statsBody)
	}
}

// TestMetricsNotEnabled pins the default: without EnableMetrics the
// route exists but answers 404, not an empty exposition.
func TestMetricsNotEnabled(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without EnableMetrics: status %d, want 404", resp.StatusCode)
	}
}

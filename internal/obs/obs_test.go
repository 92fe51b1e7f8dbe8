package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_counter_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("t_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_hist", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
	cum, count, _ := h.snapshot()
	// le=1 catches 0.5 and 1 (bounds are inclusive); le=2 adds 1.5;
	// le=4 adds 3; +Inf adds 100.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if count != 5 {
		t.Fatalf("snapshot count = %d", count)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(reg *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.Counter("9bad", "") }},
		{"bad label name", func(r *Registry) { r.Counter("ok_total", "", Label{"9bad", "v"}) }},
		{"reserved le", func(r *Registry) { r.Histogram("h", "", []float64{1}, Label{"le", "x"}) }},
		{"duplicate series", func(r *Registry) { r.Counter("dup_total", ""); r.Counter("dup_total", "") }},
		{"type mismatch", func(r *Registry) { r.Counter("mix", ""); r.Gauge("mix", "") }},
		{"help mismatch", func(r *Registry) {
			// Same family, divergent help: the exposition would carry
			// whichever literal registered first, silently orphaning the
			// other — a startup panic beats dashboard drift.
			r.Counter("hm_total", "one help", Label{"kind", "a"})
			r.Counter("hm_total", "another help", Label{"kind", "b"})
		}},
		{"empty buckets", func(r *Registry) { r.Histogram("h", "", nil) }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("h", "", []float64{2, 1}) }},
		{"nil gauge func", func(r *Registry) { r.GaugeFunc("g", "", nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestLabeledFamilySharesOneTypeLine(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("req_total", "requests", Label{"outcome", "ok"}).Add(3)
	reg.Counter("req_total", "requests", Label{"outcome", "shed"}).Add(1)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE req_total counter"); n != 1 {
		t.Fatalf("TYPE lines = %d, want 1\n%s", n, out)
	}
	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, out)
	}
	if samples[`req_total{outcome="ok"}`] != 3 || samples[`req_total{outcome="shed"}`] != 1 {
		t.Fatalf("samples %v", samples)
	}
}

// TestExpositionRoundTrip pushes every metric kind (including func-backed
// and escaped label values) through the writer and the strict parser.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_requests_total", "total requests", Label{"path", `with"quote` + "\nand newline\\"}).Add(7)
	reg.Gauge("rt_queue_depth", "queued now").Set(3)
	reg.GaugeFunc("rt_pressure", "live pressure", func() float64 { return 0.25 })
	reg.CounterFunc("rt_shed_total", "shed requests", func() float64 { return 12 })
	h := reg.Histogram("rt_latency_seconds", "latency", DefLatencyBuckets, Label{"outcome", "ok"})
	h.Observe(0.003)
	h.Observe(0.3)
	h.Observe(30) // lands in +Inf

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\nexposition:\n%s", err, buf.String())
	}
	checks := map[string]float64{
		`rt_requests_total{path="with\"quote\nand newline\\"}`: 7,
		"rt_queue_depth": 3,
		"rt_pressure":    0.25,
		"rt_shed_total":  12,
		`rt_latency_seconds_bucket{le="+Inf",outcome="ok"}`: 3,
		`rt_latency_seconds_count{outcome="ok"}`:            3,
	}
	for key, want := range checks {
		got, ok := samples[key]
		if !ok {
			t.Fatalf("missing sample %s\nhave: %v", key, sampleKeys(samples))
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	if sum := samples[`rt_latency_seconds_sum{outcome="ok"}`]; math.Abs(sum-30.303) > 1e-9 {
		t.Fatalf("histogram sum = %v", sum)
	}
}

func sampleKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "orphan_metric 1\n",
		"bad value":          "# TYPE m gauge\nm not-a-number\n",
		"unterminated label": "# TYPE m gauge\nm{a=\"x 1\n",
		"unquoted label":     "# TYPE m gauge\nm{a=x} 1\n",
		"bad type":           "# TYPE m sparkline\nm 1\n",
		"duplicate sample":   "# TYPE m gauge\nm 1\nm 2\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(in)); err == nil {
				t.Fatalf("parsed malformed input without error:\n%s", in)
			}
		})
	}
}

func TestServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "x").Inc()
	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	if _, err := ParseText(rr.Body); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentObserveAndScrape hammers every metric kind from many
// goroutines while scrapes run — the -race guarantee that observation
// never tears a scrape and vice versa. Final values are checked exactly:
// atomics must not lose increments under contention.
func TestConcurrentObserveAndScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cc_total", "")
	g := reg.Gauge("cc_gauge", "")
	h := reg.Histogram("cc_hist", "", []float64{0.5, 1, 2})
	reg.GaugeFunc("cc_live", "", func() float64 { return float64(c.Value()) })

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(seed%3) + 0.25)
			}
		}(w)
	}
	// Scrapers run concurrently with the writers; every intermediate
	// exposition must still parse.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := reg.WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseText(bytes.NewReader(buf.Bytes())); err != nil {
					t.Errorf("mid-flight exposition invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Fatalf("counter lost increments: %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge lost adds: %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram lost observations: %d, want %d", h.Count(), total)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
	lin := LinearBuckets(0.1, 0.1, 3)
	for i, want := range []float64{0.1, 0.2, 0.3} {
		if math.Abs(lin[i]-want) > 1e-12 {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
}

func TestSlowQueryLogThreshold(t *testing.T) {
	var lines []string
	l := &SlowQueryLog{
		Threshold: 10 * time.Millisecond,
		Logf: func(format string, args ...interface{}) {
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	}
	fast := SlowQuery{ID: l.NextID(), K: 10, EF: 100, EFUsed: 100, NDC: 50, Hops: 5, Duration: 9 * time.Millisecond}
	if l.Observe(fast) {
		t.Fatal("below-threshold query logged")
	}
	slow := SlowQuery{ID: l.NextID(), K: 10, EF: 100, EFUsed: 80, NDC: 1234, ADC: 5678, Hops: 57,
		Truncated: false, Clamped: true, ClampedBy: ClampAdmission, Duration: 12345 * time.Microsecond}
	if !l.Observe(slow) {
		t.Fatal("threshold-crossing query not logged")
	}
	// Exactly at the threshold counts as slow.
	if !l.Observe(SlowQuery{ID: l.NextID(), Duration: 10 * time.Millisecond}) {
		t.Fatal("at-threshold query not logged")
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	want := "slow-query id=2 k=10 ef=100 efUsed=80 ef_clamped_by=admission repair=none reshard=none ndc=1234 adc=5678 hops=57 truncated=false clamped=true durMs=12.345"
	if lines[0] != want {
		t.Fatalf("line format drifted:\n got %q\nwant %q", lines[0], want)
	}
	// The line parses as logfmt: every token after the tag is key=value,
	// and the clamp attribution keys are present with the right values.
	fields := map[string]string{}
	for _, tok := range strings.Fields(lines[0])[1:] {
		kv := strings.SplitN(tok, "=", 2)
		if len(kv) != 2 {
			t.Fatalf("token %q is not key=value", tok)
		}
		fields[kv[0]] = kv[1]
	}
	if fields["ef_clamped_by"] != ClampAdmission {
		t.Fatalf("ef_clamped_by = %q, want %q", fields["ef_clamped_by"], ClampAdmission)
	}
	if fields["efUsed"] != "80" {
		t.Fatalf("efUsed = %q, want 80", fields["efUsed"])
	}
	// An unset ClampedBy renders as the explicit "none", never empty (an
	// empty value would break naive logfmt splitting downstream).
	var rendered []string
	l2 := &SlowQueryLog{Threshold: time.Millisecond, Logf: func(f string, a ...interface{}) {
		rendered = append(rendered, fmt.Sprintf(f, a...))
	}}
	l2.Observe(SlowQuery{ID: 1, Duration: time.Second})
	if len(rendered) != 1 || !strings.Contains(rendered[0], "ef_clamped_by=none") {
		t.Fatalf("unset ClampedBy line: %v", rendered)
	}
	// Disabled configurations never log and never panic.
	var nilLog *SlowQueryLog
	if nilLog.Observe(slow) {
		t.Fatal("nil log observed")
	}
	if (&SlowQueryLog{Logf: func(string, ...interface{}) { t.Fatal("emitted") }}).Observe(slow) {
		t.Fatal("zero-threshold log observed")
	}
}

func TestRegisterProcessMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if samples["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v", samples["go_goroutines"])
	}
	if samples["go_memstats_heap_inuse_bytes"] <= 0 {
		t.Fatalf("heap gauge = %v", samples["go_memstats_heap_inuse_bytes"])
	}
}

func TestConstLabeledRegistryAndMerge(t *testing.T) {
	// Two per-shard registries plus an unlabeled one, all registering the
	// same family names — the sharded server's exposition shape.
	global := NewRegistry()
	global.Counter("t_requests_total", "Requests.")
	shards := []*Registry{
		NewRegistry(Label{Name: "shard", Value: "0"}),
		NewRegistry(Label{Name: "shard", Value: "1"}),
	}
	for i, r := range shards {
		r.Counter("t_fix_total", "Fixes.").Add(uint64(i + 1))
		r.Histogram("t_lat_seconds", "Latency.", []float64{1}).Observe(0.5)
	}

	var buf bytes.Buffer
	if err := WriteMergedText(&buf, global, shards[0], shards[1]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Each family header appears exactly once even though two registries
	// contribute series.
	if got := strings.Count(out, "# TYPE t_fix_total counter"); got != 1 {
		t.Fatalf("TYPE t_fix_total count = %d in:\n%s", got, out)
	}
	if got := strings.Count(out, "# TYPE t_lat_seconds histogram"); got != 1 {
		t.Fatalf("TYPE t_lat_seconds count = %d in:\n%s", got, out)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, out)
	}
	if samples[`t_fix_total{shard="0"}`] != 1 || samples[`t_fix_total{shard="1"}`] != 2 {
		t.Fatalf("shard-labeled counters wrong: %v", samples)
	}
	if samples[`t_lat_seconds_count{shard="1"}`] != 1 {
		t.Fatalf("shard-labeled histogram missing: %v", samples)
	}
	if _, ok := samples["t_requests_total"]; !ok {
		t.Fatalf("unlabeled family lost in merge: %v", samples)
	}

	// Const labels combine with per-series labels.
	r := NewRegistry(Label{Name: "shard", Value: "7"})
	r.Counter("t_kinds_total", "By kind.", Label{Name: "kind", Value: "a"}).Inc()
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `t_kinds_total{kind="a",shard="7"} 1`) {
		t.Fatalf("const+series labels not combined: %s", buf.String())
	}

	// Type conflicts across registries surface as an error, not silence.
	a, b := NewRegistry(), NewRegistry()
	a.Counter("t_conflict", "")
	b.Gauge("t_conflict", "")
	if err := WriteMergedText(&bytes.Buffer{}, a, b); err == nil {
		t.Fatal("type conflict across registries not detected")
	}

	// MergedHandler serves the same content with the exposition type.
	h := MergedHandler(global, shards[0], shards[1])
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `t_fix_total{shard="1"} 2`) {
		t.Fatalf("handler body:\n%s", rec.Body.String())
	}
}

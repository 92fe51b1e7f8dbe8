package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

func newTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset) {
	ts, _, d := newTestServerFull(t)
	return ts, d
}

// newTestServerFull also exposes the Server for tests that poke at
// readiness, the snapshot hook, or body limits. Like production startup,
// it marks the server ready once the (here: instant) index load is done.
func newTestServerFull(t *testing.T) (*httptest.Server, *Server, *dataset.Dataset) {
	return newTestServerWAL(t, nil)
}

// newTestServerWAL is newTestServerFull with an injectable durability
// sink, wired like production: the snapshot endpoint goes through the
// fixer so a successful snapshot clears durability degradation.
func newTestServerWAL(t *testing.T, wal core.WAL) (*httptest.Server, *Server, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "srv", N: 500, NHist: 100, NTest: 30,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	fixer := newTestFixer(d, wal)
	s := New(fixer)
	if wal != nil {
		s.SnapshotFunc = fixer.Snapshot
	}
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, d
}

// newTestFixer builds the fixer newTestServerWAL serves; a test can also
// build a twin outside any server and feed it the same queries directly.
func newTestFixer(d *dataset.Dataset, wal core.WAL) *core.OnlineFixer {
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
	return core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 50, PrepEF: 80, WAL: wal})
}

func post(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSearchEndpoint(t *testing.T) {
	ts, d := newTestServer(t)
	var out SearchResponse
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(5), EF: IntPtr(30)}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 5 || out.NDC == 0 {
		t.Fatalf("response %+v", out)
	}
	for i := 1; i < len(out.Results); i++ {
		if out.Results[i].Dist < out.Results[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
	// Defaults apply when k/ef omitted.
	resp = post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1)}, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 10 {
		t.Fatalf("default k: status %d results %d", resp.StatusCode, len(out.Results))
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	// Wrong dim.
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: []float32{1, 2}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim status %d", resp.StatusCode)
	}
	// Missing vector.
	resp = post(t, ts.URL+"/v1/search", SearchRequest{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-vector status %d", resp.StatusCode)
	}
	// GET not allowed.
	getResp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", getResp.StatusCode)
	}
	// Unknown fields rejected.
	resp2, err := http.Post(ts.URL+"/v1/search", "application/json",
		bytes.NewReader([]byte(`{"vector":[1],"bogus":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status %d", resp2.StatusCode)
	}
}

// Strict k/ef validation: explicit nonsense is a clear 400 at the edge,
// never a silent clamp deep in the search stack. Omitted values still
// take the server defaults (TestSearchEndpoint covers that).
func TestSearchParamValidation(t *testing.T) {
	ts, d := newTestServer(t) // 500-vector index
	v := d.TestOOD.Row(0)
	bad := []struct {
		name string
		req  SearchRequest
		want string
	}{
		{"k zero", SearchRequest{Vector: v, K: IntPtr(0)}, "k must be at least 1"},
		{"k negative", SearchRequest{Vector: v, K: IntPtr(-3)}, "k must be at least 1"},
		{"ef zero", SearchRequest{Vector: v, EF: IntPtr(0)}, "ef must be at least 1"},
		{"ef below k", SearchRequest{Vector: v, K: IntPtr(20), EF: IntPtr(10)}, "must be at least k"},
		{"ef beyond graph", SearchRequest{Vector: v, K: IntPtr(5), EF: IntPtr(501)}, "exceeds the graph size"},
		// Without ef, a k above the row count would search at ef = k.
		{"k beyond graph", SearchRequest{Vector: v, K: IntPtr(501)}, "k (501) exceeds the graph size (500 vectors)"},
	}
	for _, c := range bad {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(c.req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if err != nil || !strings.Contains(body["error"], c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, body["error"], c.want)
		}
	}
	// The largest legal explicit ef (= graph size) still works.
	var sr SearchResponse
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: v, K: IntPtr(5), EF: IntPtr(500)}, &sr)
	if resp.StatusCode != http.StatusOK || len(sr.Results) != 5 || sr.EFUsed != 500 {
		t.Fatalf("ef=graph-size search: status %d results %d efUsed %d", resp.StatusCode, len(sr.Results), sr.EFUsed)
	}
}

func TestInsertDeletePurgeFlow(t *testing.T) {
	ts, d := newTestServer(t)
	var ins InsertResponse
	v := make([]float32, 8)
	copy(v, d.TestOOD.Row(0))
	resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: v}, &ins)
	if resp.StatusCode != http.StatusOK || ins.ID != 500 {
		t.Fatalf("insert: status %d id %d", resp.StatusCode, ins.ID)
	}
	// New point is findable.
	var sr SearchResponse
	post(t, ts.URL+"/v1/search", SearchRequest{Vector: v, K: IntPtr(1), EF: IntPtr(30)}, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != 500 {
		t.Fatalf("inserted point not top-1: %+v", sr.Results)
	}
	// Delete it.
	var del DeleteResponse
	post(t, ts.URL+"/v1/delete", DeleteRequest{ID: 500}, &del)
	if !del.Deleted {
		t.Fatal("delete failed")
	}
	post(t, ts.URL+"/v1/delete", DeleteRequest{ID: 500}, &del)
	if del.Deleted {
		t.Fatal("double delete should report false")
	}
	resp = post(t, ts.URL+"/v1/delete", DeleteRequest{ID: 9999}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range delete status %d", resp.StatusCode)
	}
	// Purge removes it for good.
	var pr PurgeResponse
	post(t, ts.URL+"/v1/purge", PurgeRequest{K: 10, EF: 50}, &pr)
	if pr.Purged != 1 {
		t.Fatalf("purged %d, want 1", pr.Purged)
	}
	// Deleted point no longer returned.
	post(t, ts.URL+"/v1/search", SearchRequest{Vector: v, K: IntPtr(3), EF: IntPtr(30)}, &sr)
	for _, h := range sr.Results {
		if h.ID == 500 {
			t.Fatal("purged point returned")
		}
	}
}

func TestFixAndStatsEndpoints(t *testing.T) {
	ts, d := newTestServer(t)
	// Serve some queries to populate the fix buffer.
	for qi := 0; qi < 20; qi++ {
		var sr SearchResponse
		post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.History.Row(qi), K: IntPtr(5), EF: IntPtr(30)}, &sr)
	}
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Vectors != 500 || st.PendingFix != 20 || st.Metric != "L2" {
		t.Fatalf("stats %+v", st)
	}
	var fr FixResponse
	post(t, ts.URL+"/v1/fix", struct{}{}, &fr)
	if fr.Queries != 20 {
		t.Fatalf("fixed %d, want 20", fr.Queries)
	}
	// Stats reflect the batch.
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	json.NewDecoder(resp2.Body).Decode(&st)
	if st.FixBatches != 1 || st.FixedQueries != 20 || st.PendingFix != 0 {
		t.Fatalf("post-fix stats %+v", st)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// syncBuffer is a goroutine-safe log sink: handlers log from the HTTP
// server's goroutines while the test reads from its own.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func doMethod(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestMethodEnforcement(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/v1/stats", http.MethodGet},
		{http.MethodGet, "/v1/fix", http.MethodPost},
		{http.MethodPost, "/healthz", http.MethodGet},
		{http.MethodDelete, "/readyz", http.MethodGet},
		{http.MethodGet, "/v1/snapshot", http.MethodPost},
	}
	for _, c := range cases {
		resp := doMethod(t, c.method, ts.URL+c.path)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}

func TestReadyzLifecycle(t *testing.T) {
	ts, s, _ := newTestServerFull(t)
	s.SetReady(false) // back to the pre-load state

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ready: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before ready: %d, want 200 (liveness != readiness)", code)
	}
	s.SetReady(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after ready: %d, want 200", code)
	}
	s.StartDrain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	// Draining still serves stragglers.
	if code := get("/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats while draining: %d, want 200", code)
	}
}

func TestPanicRecovery(t *testing.T) {
	ts, s, d := newTestServerFull(t)
	logs := &syncBuffer{}
	s.Logger = log.New(logs, "", 0)
	s.SnapshotFunc = func() error { panic("disk fell off") }

	resp := post(t, ts.URL+"/v1/snapshot", struct{}{}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(logs.String(), "disk fell off") {
		t.Fatal("panic not logged")
	}
	// The process survived: normal serving continues.
	var sr SearchResponse
	resp = post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(3), EF: IntPtr(30)}, &sr)
	if resp.StatusCode != http.StatusOK || len(sr.Results) != 3 {
		t.Fatalf("serving broken after panic: status %d, %d results", resp.StatusCode, len(sr.Results))
	}
}

func TestRequestBodyLimit(t *testing.T) {
	ts, s, _ := newTestServerFull(t)
	s.MaxBodyBytes = 128
	big := make([]float32, 1024)
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: big}, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// Small bodies still fit.
	resp = post(t, ts.URL+"/v1/delete", DeleteRequest{ID: 1}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after limit: status %d", resp.StatusCode)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	ts, s, _ := newTestServerFull(t)
	resp := post(t, ts.URL+"/v1/snapshot", struct{}{}, nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("snapshot without persistence: status %d, want 501", resp.StatusCode)
	}
	calls := 0
	s.SnapshotFunc = func() error { calls++; return nil }
	var sn SnapshotResponse
	resp = post(t, ts.URL+"/v1/snapshot", struct{}{}, &sn)
	if resp.StatusCode != http.StatusOK || !sn.OK || calls != 1 {
		t.Fatalf("snapshot: status %d ok=%v calls=%d", resp.StatusCode, sn.OK, calls)
	}
	s.SnapshotFunc = func() error { calls++; return errTestSnapshot }
	resp = post(t, ts.URL+"/v1/snapshot", struct{}{}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing snapshot: status %d, want 500", resp.StatusCode)
	}
}

var errTestSnapshot = errors.New("no space left on device")

// TestConcurrentServing hammers the server from many goroutines — search,
// insert, delete, fix, stats — and asserts the counters clients observe
// are coherent: fixed-query and batch totals never go backwards and the
// vector count never shrinks. Run with -race.
func TestConcurrentServing(t *testing.T) {
	ts, _, d := newTestServerFull(t)
	client := ts.Client()

	postJSON := func(path string, body interface{}, out interface{}) (int, error) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
		resp, err := client.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Searchers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var sr SearchResponse
				q := d.History.Row((i*3 + w) % d.History.Rows())
				code, err := postJSON("/v1/search", SearchRequest{Vector: q, K: IntPtr(5), EF: IntPtr(30)}, &sr)
				if err != nil || code != http.StatusOK || len(sr.Results) == 0 {
					fail(fmt.Errorf("search worker %d: code %d err %v results %d", w, code, err, len(sr.Results)))
					return
				}
			}
		}(w)
	}
	// Mutator: inserts then deletes its own vectors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var ins InsertResponse
			code, err := postJSON("/v1/insert", InsertRequest{Vector: d.TestOOD.Row(i)}, &ins)
			if err != nil || code != http.StatusOK {
				fail(fmt.Errorf("insert %d: code %d err %v", i, code, err))
				return
			}
			if code, err := postJSON("/v1/delete", DeleteRequest{ID: ins.ID}, nil); err != nil || code != http.StatusOK {
				fail(fmt.Errorf("delete %d: code %d err %v", ins.ID, code, err))
				return
			}
		}
	}()
	// Fixer: drains the recorded-query buffer while searches stream in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if code, err := postJSON("/v1/fix", struct{}{}, nil); err != nil || code != http.StatusOK {
				fail(fmt.Errorf("fix %d: code %d err %v", i, code, err))
				return
			}
		}
	}()
	// Stats poller: the monotonicity observer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev StatsResponse
		for i := 0; i < 30; i++ {
			resp, err := client.Get(ts.URL + "/v1/stats")
			if err != nil {
				fail(fmt.Errorf("stats %d: %v", i, err))
				return
			}
			var st StatsResponse
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				fail(fmt.Errorf("stats decode %d: %v", i, err))
				return
			}
			if st.FixedQueries < prev.FixedQueries || st.FixBatches < prev.FixBatches {
				fail(fmt.Errorf("fix counters went backwards: %+v then %+v", prev, st))
				return
			}
			if st.Vectors < prev.Vectors {
				fail(fmt.Errorf("vector count shrank: %d then %d", prev.Vectors, st.Vectors))
				return
			}
			prev = st
		}
	}()

	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		t.Fatal(err)
	}
}

// flakyWAL is a durability sink with a kill switch: while broken, every
// append and snapshot fails.
type flakyWAL struct {
	mu     sync.Mutex
	broken bool
	snaps  int
}

func (w *flakyWAL) setBroken(b bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.broken = b
}

func (w *flakyWAL) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return errors.New("journal disk unavailable")
	}
	return nil
}

func (w *flakyWAL) LogInsert(v []float32) error             { return w.err() }
func (w *flakyWAL) LogDelete(id uint32) error               { return w.err() }
func (w *flakyWAL) LogFixEdges(u []graph.ExtraUpdate) error { return w.err() }
func (w *flakyWAL) Snapshot(g *graph.Graph) error {
	if err := w.err(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.snaps++
	return nil
}

// A WAL failure must not be a silent stats footnote: the mutation that
// could not be journaled is answered 5xx instead of an ack, /readyz turns
// 503 so balancers stop routing writes here, and a successful snapshot —
// which captures the full in-memory state — restores both.
func TestDurabilityDegradationSurfaced(t *testing.T) {
	wal := &flakyWAL{}
	ts, _, d := newTestServerWAL(t, wal)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Healthy: inserts ack, readyz routes.
	v := d.TestOOD.Row(0)
	var ins InsertResponse
	if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: v}, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy insert: status %d", resp.StatusCode)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("healthy readyz: %d", code)
	}

	wal.setBroken(true)
	if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: v}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unjournaled insert: status %d, want 500", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/delete", DeleteRequest{ID: ins.ID}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unjournaled delete: status %d, want 500", resp.StatusCode)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz: %d, want 503", code)
	}
	// Searches keep serving — degradation sheds routing, not reads.
	var sr SearchResponse
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: v, K: IntPtr(3), EF: IntPtr(30)}, &sr); resp.StatusCode != http.StatusOK || len(sr.Results) == 0 {
		t.Fatalf("search while degraded: status %d, %d results", resp.StatusCode, len(sr.Results))
	}
	// The incident is on the stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.WALErrors < 2 || st.LastWALError == "" {
		t.Fatalf("stats while degraded: %+v", st)
	}
	// Snapshot also fails while the disk is gone.
	if resp := post(t, ts.URL+"/v1/snapshot", struct{}{}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("snapshot while broken: status %d, want 500", resp.StatusCode)
	}

	// Disk returns: one successful snapshot seals the in-memory state and
	// clears the condition.
	wal.setBroken(false)
	if resp := post(t, ts.URL+"/v1/snapshot", struct{}{}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery snapshot: status %d", resp.StatusCode)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d, want 200", code)
	}
	if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: v}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after recovery: status %d", resp.StatusCode)
	}
}

// TestOverflowingVectorRejected: a vector whose distances would overflow
// float32 is a 400 on search and on insert, and an insert that is refused
// leaves the index as it was. JSON cannot carry NaN or ±Inf, and the
// codec refuses a number out of float32 range, so those reach only
// checkVector's own test here; it refuses them too.
func TestOverflowingVectorRejected(t *testing.T) {
	ts, s, d := newTestServerFull(t)
	dim := d.Base.Dim()
	huge := make([]float32, dim)
	huge[0] = 3e38
	spread := make([]float32, dim) // each component finite, its square not
	for i := range spread {
		spread[i] = 1e19
	}
	vectors := func() int {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Vectors
	}
	before := vectors()
	for _, v := range [][]float32{huge, spread} {
		if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: v, K: IntPtr(5), EF: IntPtr(30)}, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("search %g…: status %d, want 400", v[0], resp.StatusCode)
		}
		if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: v}, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("insert %g…: status %d, want 400", v[0], resp.StatusCode)
		}
	}
	if after := vectors(); after != before {
		t.Fatalf("refused inserts changed the index: %d vectors, was %d", after, before)
	}
	topo := s.Topology()
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		v := append([]float32(nil), d.TestOOD.Row(0)...)
		v[dim-1] = bad
		if status, err := checkVector(&topo, v); status != http.StatusBadRequest || err == nil {
			t.Fatalf("checkVector with a %g component: status %d, err %v, want 400", bad, status, err)
		}
	}
	if status, err := checkVector(&topo, d.TestOOD.Row(0)); err != nil {
		t.Fatalf("checkVector refused an ordinary query: status %d, %v", status, err)
	}
	// The largest vector allowed still searches.
	edge := make([]float32, dim)
	edge[0] = float32(math.Sqrt(vec.MaxSquaredNorm)) * (1 - 1e-6)
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: edge, K: IntPtr(5), EF: IntPtr(30)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("search at the norm bound: status %d, want 200", resp.StatusCode)
	}
}

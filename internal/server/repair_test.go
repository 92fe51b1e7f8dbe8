package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/repair"
	"ngfix/internal/vec"
)

// repairTestServer builds a single-shard server whose fixer the test
// keeps a handle on, so it can attach a repair fleet and feed queries
// directly.
func repairTestServer(t *testing.T, wal core.WAL, snapshotEvery int) (*httptest.Server, *Server, *core.OnlineFixer, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "srv-repair", N: 400, NHist: 80, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 5,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{
		BatchSize: 50, PrepEF: 80, WAL: wal, SnapshotEveryBatches: snapshotEvery,
	})
	s := New(fixer)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, fixer, d
}

// setRepair installs the current topology with fleet as its repair fleet.
func setRepair(s *Server, fleet *repair.Fleet) {
	t := s.Topology()
	t.Repair = fleet
	s.Install(t)
}

// With a repair fleet attached, /v1/stats carries the aggregate mode
// plus per-shard controller status, and every slow-query line is
// attributed with the repair mode active while the search ran.
func TestStatsAndSlowQueriesSurfaceRepair(t *testing.T) {
	ts, s, fixer, d := repairTestServer(t, nil, 0)
	ctl := repair.New(0, fixer, nil, repair.Config{Interval: time.Hour})
	setRepair(s, repair.NewFleet(ctl))

	var mu sync.Mutex
	var lines []string
	s.SlowQueries = &obs.SlowQueryLog{
		Threshold: time.Nanosecond, // everything is slow: exercises the attribution
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}

	var sr SearchResponse
	post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(5), EF: IntPtr(20)}, &sr)
	mu.Lock()
	if len(lines) != 1 || !strings.Contains(lines[0], "repair=steady") {
		mu.Unlock()
		t.Fatalf("slow-query attribution missing: %q", lines)
	}
	mu.Unlock()

	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RepairMode != "steady" {
		t.Fatalf("stats repairMode %q, want steady", st.RepairMode)
	}
	if len(st.Repair) != 1 || st.Repair[0].Shard != 0 || st.Repair[0].Mode != "steady" {
		t.Fatalf("stats repair block: %+v", st.Repair)
	}
	if st.Repair[0].Wedged {
		t.Fatalf("fresh controller reported wedged: %+v", st.Repair[0])
	}

	// Without a fleet the fields stay omitted — pre-adaptive dashboards
	// see an unchanged payload.
	setRepair(s, nil)
	body := getBody(t, ts.URL+"/v1/stats")
	if strings.Contains(body, "repairMode") || strings.Contains(body, `"repair"`) {
		t.Fatalf("repair fields leaked without a fleet: %s", body)
	}
}

// snapPanicWAL panics inside Snapshot while failing is set — with
// SnapshotEveryBatches=1 every fix batch becomes a durability failure,
// the deterministic way to wedge a real controller end to end.
type snapPanicWAL struct {
	mu      sync.Mutex
	failing bool
}

func (w *snapPanicWAL) setFailing(b bool) { w.mu.Lock(); w.failing = b; w.mu.Unlock() }

func (w *snapPanicWAL) LogInsert([]float32) error             { return nil }
func (w *snapPanicWAL) LogDelete(uint32) error                { return nil }
func (w *snapPanicWAL) LogFixEdges([]graph.ExtraUpdate) error { return nil }
func (w *snapPanicWAL) Snapshot(*graph.Graph) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failing {
		panic("snapshot device detached")
	}
	return nil
}

// A controller wedged on consecutive durability failures must flip
// /readyz to 503 with the wedge named — and a single recovered batch
// must bring readiness back, matching the degraded-durability lifecycle.
func TestReadyzWedgedRepairLifecycle(t *testing.T) {
	wal := &snapPanicWAL{failing: true}
	ts, s, fixer, d := repairTestServer(t, wal, 1)
	ctl := repair.New(0, fixer, nil, repair.Config{Interval: time.Millisecond})
	fleet := repair.NewFleet(ctl)
	setRepair(s, fleet)

	ctx, cancel := context.WithCancel(context.Background())
	go fleet.Run(ctx, nil)
	feederDone := make(chan struct{})
	go func() { // failed batches drain their queries: keep the signal coming
		defer close(feederDone)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Microsecond):
				fixer.Search(d.History.Row(i%80), 5, 15)
			}
		}
	}()
	t.Cleanup(func() { cancel(); <-feederDone })

	waitFor(t, 10*time.Second, "controller to wedge", func() bool {
		return len(fleet.WedgedShards()) > 0
	})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while wedged: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "repair wedged in backoff") {
		t.Fatalf("/readyz does not name the wedge: %s", body)
	}
	var st StatsResponse
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.RepairMode != "backoff" || len(st.Repair) != 1 {
		t.Fatalf("wedged stats: mode %q repair %+v", st.RepairMode, st.Repair)
	}
	if w := st.Repair[0]; !w.Wedged || w.Reason != "wal_error" || w.LastError == "" {
		t.Fatalf("wedged controller status: %+v", w)
	}

	wal.setFailing(false)
	waitFor(t, 10*time.Second, "readiness to recover", func() bool {
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		defer r.Body.Close()
		io.Copy(io.Discard, r.Body)
		return r.StatusCode == http.StatusOK
	})
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

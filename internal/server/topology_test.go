package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/repair"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// buildTestTopology assembles an n-shard stack with its own stores,
// per-shard registries and repair fleet. With wedgeLast, the last
// shard's controller is driven into the wedged state first, so /readyz
// has a topology-specific answer too.
func buildTestTopology(t *testing.T, d *dataset.Dataset, n int, wedgeLast bool) Topology {
	t.Helper()
	stores, err := persist.OpenSharded(t.TempDir(), n, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, st := range stores {
			st.Close()
		}
	})
	wal := &snapPanicWAL{failing: true}
	fixers := make([]*core.OnlineFixer, n)
	regs := make([]*obs.Registry, n)
	for i, p := range shard.Partition(d.Base, n) {
		regs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		stores[i].RegisterMetrics(regs[i])
		cfg := core.OnlineConfig{BatchSize: 50, PrepEF: 60, Metrics: regs[i]}
		if wedgeLast && i == n-1 {
			cfg.WAL, cfg.SnapshotEveryBatches = wal, 1
		}
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
		fixers[i] = core.NewOnlineFixer(core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24}), cfg)
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	ctls := make([]*repair.Controller, n)
	for i, f := range fixers {
		ctls[i] = repair.New(i, f, nil, repair.Config{Interval: time.Millisecond})
		ctls[i].RegisterMetrics(regs[i])
	}
	fleet := repair.NewFleet(ctls...)
	if wedgeLast {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); fleet.Run(ctx, nil) }()
		last := fixers[n-1]
		for i := 0; len(fleet.WedgedShards()) == 0; i++ {
			if i > 100000 {
				t.Fatal("last shard's controller never wedged")
			}
			last.Search(d.History.Row(i%d.History.Rows()), 5, 15)
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		<-done
	}
	return Topology{Group: g, Stores: stores, Repair: fleet, Registries: regs}
}

// TestTopologyInstallIsAtomic flips the server between a 1-shard and a
// 2-shard stack — each with its own group, stores, registries and repair
// fleet — while pollers read every endpoint that reports topology.
// Every reply must describe exactly one of the two stacks: the repair
// block, the per-shard breakdown and the replicate shard range agree
// with the reported shard count, /readyz answers as one stack would, and
// the shard labels on /metrics form one stack's set.
func TestTopologyInstallIsAtomic(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "topo", N: 300, NHist: 40, NTest: 5,
		Dim: 8, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	one := buildTestTopology(t, d, 1, false)
	two := buildTestTopology(t, d, 2, true)

	s := NewSharded(one.Group)
	s.EnableMetrics(obs.NewRegistry())
	s.Install(one)
	s.SetReady(true)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	checks := map[string]func() error{
		"/v1/stats": func() error {
			_, body := get("/v1/stats")
			var st StatsResponse
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				return err
			}
			wantPer := 0
			if st.Shards > 1 {
				wantPer = st.Shards
			}
			if len(st.Repair) != st.Shards || len(st.PerShard) != wantPer {
				return fmt.Errorf("shards %d, repair %d, perShard %d", st.Shards, len(st.Repair), len(st.PerShard))
			}
			for i, r := range st.Repair {
				if wantWedged := st.Shards == 2 && i == 1; r.Wedged != wantWedged {
					return fmt.Errorf("shards %d: repair[%d].wedged = %v", st.Shards, i, r.Wedged)
				}
			}
			return nil
		},
		"/readyz": func() error {
			code, body := get("/readyz")
			switch {
			case code == http.StatusOK && strings.TrimSpace(body) == "ok":
			case code == http.StatusServiceUnavailable && strings.Contains(body, "shard(s) [1]"):
			default:
				return fmt.Errorf("status %d: %s", code, body)
			}
			return nil
		},
		"/v1/replicate/status": func() error {
			code, body := get("/v1/replicate/status?shard=1")
			switch {
			case code == http.StatusOK:
			case code == http.StatusBadRequest && strings.Contains(body, "(1 shards)"):
			default:
				return fmt.Errorf("status %d: %s", code, body)
			}
			return nil
		},
		"/metrics": func() error {
			_, body := get("/metrics")
			samples, err := obs.ParseText(strings.NewReader(body))
			if err != nil {
				return err
			}
			labels := func(family string) string {
				var got []string
				for key := range samples {
					if strings.HasPrefix(key, family+"{") {
						got = append(got, key[strings.Index(key, `shard="`):])
					}
				}
				sort.Strings(got)
				return strings.Join(got, ",")
			}
			vectors := labels("ngfix_vectors")
			if vectors != `shard="0"}` && vectors != `shard="0"},shard="1"}` {
				return fmt.Errorf("ngfix_vectors shard labels %q", vectors)
			}
			for _, fam := range []string{"ngfix_repair_batches_total", "ngfix_wal_generation"} {
				if got := labels(fam); got != vectors {
					return fmt.Errorf("%s shard labels %q, ngfix_vectors %q", fam, got, vectors)
				}
			}
			return nil
		},
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, len(checks))
	for path, check := range checks {
		wg.Add(1)
		go func(path string, check func() error) {
			defer wg.Done()
			for !stop.Load() {
				if err := check(); err != nil {
					errs <- fmt.Errorf("%s: %v", path, err)
					return
				}
			}
		}(path, check)
	}
	deadline := time.Now().Add(time.Second)
	for i := 0; time.Now().Before(deadline) && len(errs) == 0; i++ {
		if i%2 == 0 {
			s.Install(two)
		} else {
			s.Install(one)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

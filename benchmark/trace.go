package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/bruteforce"
	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/pq"
	"ngfix/internal/server"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// span is one timed call into a layer. Parent is the span of the layer
// that makes this call on the real request path (0 for a root); the
// calls themselves are replayed one after another from the outside in,
// so a child's interval lies after its parent's, not inside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name})
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.t0))
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// stack is the serving stack of ngfix-server assembled in this process
// through the packages' public constructors, with the handles the replay
// needs to call each layer directly.
type stack struct {
	wl     workload
	in     *inputs
	dir    string // scratch directory of this stack
	fixers []*core.OnlineFixer
	stores []*persist.Store
	group  *shard.Group
	srv    *server.Server
	adm    *admission.Controller
	quant  []*pq.Quantizer
	tiers  []*pq.FileTier

	buildS, pqTrainS, fixMS float64
	fixEdges                int
}

func (s *stack) close() {
	for _, t := range s.tiers {
		t.Close()
	}
	for _, f := range s.fixers {
		f.ClosePQ()
	}
	for _, st := range s.stores {
		st.Close()
	}
}

// assemble mirrors cmd/ngfix-server's start-up for wl's flags, then
// applies the same warm-up: the history through ServeHTTP, then one fix.
func assemble(in *inputs, dir string) (*stack, error) {
	wl := in.wl
	s := &stack{wl: wl, in: in, dir: dir}
	opts := core.Options{LEx: 48}

	start := time.Now()
	var ixs []*core.Index
	for _, part := range shard.Partition(in.ds.Base, wl.Shards) {
		g := hnsw.Build(part, hnsw.Config{M: 16, EFConstruction: 100, Metric: vec.Cosine, Seed: 7}).Bottom()
		ixs = append(ixs, core.New(g, opts))
	}
	s.buildS = time.Since(start).Seconds()

	if wl.persists() {
		var err error
		if s.stores, err = persist.OpenSharded(filepath.Join(dir, "state"), wl.Shards, persist.Options{}); err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	var shardRegs []*obs.Registry
	regAt := func(int) *obs.Registry { return reg }
	if wl.Shards > 1 {
		for i := 0; i < wl.Shards; i++ {
			shardRegs = append(shardRegs, obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)}))
		}
		regAt = func(i int) *obs.Registry { return shardRegs[i] }
	}
	snapOps := 4096
	if wl.InsertEvery > 0 {
		snapOps = 512
	}
	for i, ix := range ixs {
		cfg := core.OnlineConfig{
			BatchSize: wl.FixBatch, SampleEvery: 1,
			SnapshotEveryBatches: 8, SnapshotEveryMutations: snapOps,
			Metrics: regAt(i),
		}
		if wl.persists() {
			s.stores[i].RegisterMetrics(regAt(i))
			cfg.WAL = s.stores[i]
		}
		s.fixers = append(s.fixers, core.NewOnlineFixer(ix, cfg))
	}
	if wl.PQ {
		start := time.Now()
		for i, f := range s.fixers {
			q, err := pq.Train(ixs[i].G.Vectors, pq.Config{M: 16, KS: 256, Iters: 8, Seed: 23})
			if err != nil {
				return nil, err
			}
			tierPath := filepath.Join(s.stores[i].Dir(), "vectors.tier")
			if err := f.AttachPQ(q, core.PQConfig{M: 16, KS: 256, RerankFactor: 4, TierPath: tierPath}); err != nil {
				return nil, err
			}
			tier, err := pq.OpenFileTier(tierPath)
			if err != nil {
				return nil, err
			}
			s.quant = append(s.quant, q)
			s.tiers = append(s.tiers, tier)
		}
		s.pqTrainS = time.Since(start).Seconds()
	}
	if wl.persists() {
		for _, f := range s.fixers {
			if err := f.Snapshot(); err != nil {
				return nil, fmt.Errorf("initial snapshot: %w", err)
			}
		}
	}
	var err error
	if s.group, err = shard.NewGroup(s.fixers); err != nil {
		return nil, err
	}
	s.srv = server.NewSharded(s.group)
	if wl.persists() {
		s.srv.SnapshotFunc = func() error { return s.group.Snapshot() }
		s.srv.SetStores(s.stores)
	}
	s.adm = admission.New(admission.Config{Capacity: 64})
	s.srv.Admission = s.adm
	s.srv.SearchTimeout = 2 * time.Second
	s.srv.EnableMetrics(reg, shardRegs...)
	s.srv.SetReady(true)

	for i, body := range in.hist {
		if rec := s.serve("/v1/search", body); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("history query %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	start = time.Now()
	rep, err := s.group.FixPendingChecked()
	if err != nil {
		return nil, fmt.Errorf("warm-up fix: %w", err)
	}
	s.fixMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.fixEdges = rep.NGFixEdges + rep.RFixEdges
	return s, nil
}

func (s *stack) serve(path string, body []byte) *httptest.ResponseRecorder {
	rec, req := newExchange(path, body)
	s.srv.ServeHTTP(rec, req)
	return rec
}

func newExchange(path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and path: only a bug gets here
	}
	return httptest.NewRecorder(), req
}

// runTrace produces the per-layer metrics of one workload in-process and
// writes the spans to outDir/trace-<workload>.json. res already holds
// the same invocation's run against the real binary: its closed-loop p50
// is the base of server.http_overhead_us.
func runTrace(cfg runConfig, res *runResult) error {
	in := makeInputs(cfg.sz, cfg.seed, cfg.wl)
	res.set("dataset.generate_s", in.generate.Seconds(), 0)
	dir := filepath.Join(cfg.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := assemble(in, dir)
	if err != nil {
		return fmt.Errorf("assemble in-process stack: %w", err)
	}
	defer s.close()
	wl := cfg.wl
	res.set("hnsw.build_s", s.buildS, 0)
	res.set("pq.train_s", s.pqTrainS, 0)
	res.set("core.fix_batch_ms", s.fixMS, 0)
	res.set("core.fix_edges_added", float64(s.fixEdges), 0)

	var baseEdges, extraEdges, rows int
	for _, f := range s.fixers {
		g := f.Index().G
		b, e := g.EdgeCount()
		baseEdges, extraEdges, rows = baseEdges+b, extraEdges+e, rows+g.Len()
	}
	res.set("graph.avg_degree_base", float64(baseEdges)/float64(rows), 0)
	res.set("graph.avg_degree_extra", float64(extraEdges)/float64(rows), 0)

	// Untraced pass: ServeHTTP alone over search requests, for the base of
	// trace.overhead_ratio and the allocation counts (net of what the
	// httptest exchange itself allocates).
	var noop http.HandlerFunc = func(http.ResponseWriter, *http.Request) {}
	harnessAllocs, harnessBytes := allocsPer(untracedRequests, func(i int) {
		rec, req := newExchange("/v1/search", in.test[i%len(in.test)])
		noop(rec, req)
	})
	untraced := make([]float64, 0, untracedRequests)
	allocs, allocBytes := allocsPer(untracedRequests, func(i int) {
		rec, req := newExchange("/v1/search", in.test[i%len(in.test)])
		start := time.Now()
		s.srv.ServeHTTP(rec, req)
		untraced = append(untraced, float64(time.Since(start))/float64(time.Microsecond))
	})
	res.set("server.allocs_per_search", allocs-harnessAllocs, untracedRequests)
	res.set("server.bytes_per_search", allocBytes-harnessBytes, untracedRequests)

	tr, counts, err := s.replay(traceRequests)
	if err != nil {
		return err
	}
	if err := writeTrace(cfg.outDir, wl.Name, cfg.seed, tr.spans); err != nil {
		return err
	}
	s.layerMetrics(res, tr, counts)
	handler := res.Metrics["server.handler_us"].Value
	res.set("trace.overhead_ratio", handler/median(untraced), len(untraced))
	res.set("server.http_overhead_us", res.Metrics["search_p50_ms"].Value*1000-handler, 0)

	if wl.PQ {
		res.set("pq.recall_loss_pts", s.recallLoss(), in.sz.Probe)
		if st, ok := s.fixers[0].PQStats(); ok {
			res.set("pq.resident_vector_mb", float64(st.ResidentBytes)/(1<<20), 0)
			res.set("pq.full_vector_mb", float64(st.FullVectorBytes)/(1<<20), 0)
		}
	} else {
		for _, name := range []string{"pq.recall_loss_pts", "pq.resident_vector_mb", "pq.full_vector_mb"} {
			res.set(name, 0, 0)
		}
	}
	return nil
}

// allocsPer runs fn n times and returns heap allocations and bytes per
// call.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// layerCounts are the counts returned at the same boundaries the spans
// are recorded at, summed over the replay.
type layerCounts struct {
	searches, inserts   int
	ndc, hops, adc      int64
	walBytes, snapBytes int64
	snapshotMS          []float64
}

// replay sends n operations of the workload's schedule through the stack
// on this goroutine. For each it calls every layer's public entry point
// on the same input, from the outside in, recording a span around each
// call.
func (s *stack) replay(n int) (*tracer, layerCounts, error) {
	wl, in := s.wl, s.in
	var counts layerCounts
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n*8)}
	src := newSource(in, 1)
	rng := rand.New(rand.NewSource(in.seed))

	searchers := make([]*graph.Searcher, len(s.fixers))
	pqSearchers := make([]*pq.GraphSearcher, len(s.fixers))
	for i, f := range s.fixers {
		g := f.Index().G
		searchers[i] = graph.NewSearcher(g)
		if wl.PQ {
			pqSearchers[i] = pq.NewGraphSearcher(g, s.quant[i])
			pqSearchers[i].Tier = s.tiers[i]
			pqSearchers[i].Rerank = 4 * wl.K
		}
	}

	// The insert layers below core get private targets, so calling them
	// again on the same vector does not corrupt the served index: a
	// scratch store for the WAL append, a clone of shard 0's graph for
	// the HNSW insertion.
	var scratch *persist.Store
	var cloneG *graph.Graph
	var cloneSearcher *graph.Searcher
	if wl.InsertEvery > 0 {
		var err error
		if scratch, err = persist.Open(filepath.Join(s.dir, "scratch-wal"), persist.Options{}); err != nil {
			return nil, counts, err
		}
		defer scratch.Close()
		cloneG = s.fixers[0].Index().G.Clone()
		cloneSearcher = graph.NewSearcher(cloneG)
		if err := scratch.Snapshot(cloneG); err != nil {
			return nil, counts, err
		}
	}

	var ids []uint32
	var dists []float32
	for r := 1; r <= n; r++ {
		op := src.next(0)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)

		if op.kind == opInsert {
			v := in.ds.TestID.Row(op.idx)
			counts.inserts++
			rec, req := newExchange("/v1/insert", op.body)
			root := tr.begin("server.insert_handler", 0, r)
			s.srv.ServeHTTP(rec, req)
			tr.end(root)
			if rec.Code != http.StatusOK {
				cancel()
				return nil, counts, fmt.Errorf("traced insert %d: status %d: %s", r, rec.Code, rec.Body)
			}
			sh := counts.inserts % len(s.fixers)
			c := tr.begin("core.insert", root, r)
			_, err := s.fixers[sh].InsertChecked(v)
			tr.end(c)
			if err != nil {
				cancel()
				return nil, counts, fmt.Errorf("traced InsertChecked: %w", err)
			}
			p := tr.begin("persist.append", c, r)
			err = scratch.LogInsert(v)
			tr.end(p)
			if err != nil {
				cancel()
				return nil, counts, fmt.Errorf("traced LogInsert: %w", err)
			}
			h := tr.begin("hnsw.insert", c, r)
			hnsw.InsertIntoGraphWith(cloneG, cloneSearcher, v, 16, 200)
			tr.end(h)
			cancel()
			continue
		}

		q := in.ds.TestOOD.Row(op.idx)
		counts.searches++
		rec, req := newExchange("/v1/search", op.body)
		root := tr.begin("server.handler", 0, r)
		s.srv.ServeHTTP(rec, req)
		tr.end(root)
		if rec.Code != http.StatusOK {
			cancel()
			return nil, counts, fmt.Errorf("traced search %d: status %d: %s", r, rec.Code, rec.Body)
		}

		var sreq server.SearchRequest
		d := tr.begin("server.decode", root, r)
		err := json.Unmarshal(op.body, &sreq)
		tr.end(d)
		if err != nil {
			cancel()
			return nil, counts, err
		}

		a := tr.begin("admission.acquire", root, r)
		release, err := s.adm.Acquire(ctx, s.adm.SearchCostN(wl.EF, wl.Shards))
		if err == nil {
			release()
		}
		tr.end(a)
		if err != nil {
			cancel()
			return nil, counts, fmt.Errorf("traced Acquire: %w", err)
		}

		g := tr.begin("shard.search", root, r)
		hits, st, _ := s.group.SearchStale(ctx, q, wl.K, wl.EF, wl.Shards)
		tr.end(g)

		for i, f := range s.fixers {
			c := tr.begin("core.search", g, r)
			f.SearchCtx(ctx, q, wl.K, wl.EF)
			tr.end(c)
			if wl.PQ {
				p := tr.begin("pq.search", c, r)
				_, pst := pqSearchers[i].SearchCtx(ctx, q, wl.K, wl.EF)
				tr.end(p)
				counts.adc += pst.ADCLookups
				counts.ndc += pst.NDC
				counts.hops += int64(pst.Hops)
				t := tr.begin("pq.table_build", p, r)
				s.quant[i].BuildTable(q)
				tr.end(t)
				continue
			}
			gr := f.Index().G
			gs := tr.begin("graph.search", c, r)
			_, gst := searchers[i].SearchFromCtx(ctx, q, wl.K, wl.EF, gr.EntryPoint)
			tr.end(gs)
			counts.ndc += gst.NDC
			counts.hops += int64(gst.Hops)

			// The kernel's share: the same number of row distances in
			// hop-sized batches, over random rows (an approximation: the
			// search touches neighbours of neighbours, not random rows).
			ndc, batch := int(gst.NDC), 1
			if gst.Hops > 0 {
				batch = (ndc + gst.Hops - 1) / gst.Hops
			}
			ids = ids[:0]
			for j := 0; j < ndc; j++ {
				ids = append(ids, uint32(rng.Intn(gr.Len())))
			}
			if cap(dists) < batch {
				dists = make([]float32, batch)
			}
			vs := tr.begin("vec.rowdist", gs, r)
			qd := vec.NewQueryDistancer(vec.Cosine, q, gr.RowNorms())
			for lo := 0; lo < ndc; lo += batch {
				hi := lo + batch
				if hi > ndc {
					hi = ndc
				}
				qd.RowDistances(gr.Vectors, ids[lo:hi], dists[:hi-lo])
			}
			tr.end(vs)
		}

		resp := server.SearchResponse{NDC: st.NDC, ADC: st.ADCLookups, EFUsed: wl.EF, Results: make([]server.SearchHit, len(hits))}
		for i, h := range hits {
			resp.Results[i] = server.SearchHit{ID: h.ID, Dist: h.Dist}
		}
		e := tr.begin("server.encode", root, r)
		_, err = json.Marshal(resp)
		tr.end(e)
		cancel()
		if err != nil {
			return nil, counts, err
		}
	}

	if scratch != nil {
		counts.walBytes = dirBytes(scratch.Dir(), ".wal")
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := scratch.Snapshot(s.fixers[0].Index().G); err != nil {
				return nil, counts, err
			}
			counts.snapshotMS = append(counts.snapshotMS, float64(time.Since(start))/float64(time.Millisecond))
		}
		counts.snapBytes = dirBytes(scratch.Dir(), ".ngsnap")
	}
	return tr, counts, nil
}

// dirBytes sums the sizes of dir's files with the given suffix.
func dirBytes(dir, suffix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && filepath.Ext(e.Name()) == suffix {
			total += info.Size()
		}
	}
	return total
}

// layerMetrics turns the spans into the per-layer medians. A layer's
// self time is its span minus the span of the next call in, taken per
// request.
func (s *stack) layerMetrics(res *runResult, tr *tracer, counts layerCounts) {
	us := func(sp span) float64 { return float64(sp.End-sp.Start) / 1000 }
	byName := map[string][]float64{}
	byID := make([]float64, len(tr.spans)+1)
	children := map[int]map[string][]float64{} // parent id → child name → durations
	for _, sp := range tr.spans {
		d := us(sp)
		byName[sp.Name] = append(byName[sp.Name], d)
		byID[sp.ID] = d
		if sp.Parent != 0 {
			if children[sp.Parent] == nil {
				children[sp.Parent] = map[string][]float64{}
			}
			children[sp.Parent][sp.Name] = append(children[sp.Parent][sp.Name], d)
		}
	}
	// self returns, per span called name, its duration minus f(children).
	self := func(name string, f func(kids map[string][]float64) float64) []float64 {
		var out []float64
		for _, sp := range tr.spans {
			if sp.Name == name {
				out = append(out, byID[sp.ID]-f(children[sp.ID]))
			}
		}
		return out
	}
	first := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return v[0]
	}
	maxOf := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	med := func(name string, v []float64) { res.set(name, median(v), len(v)) }

	for _, name := range []string{
		"server.handler", "server.decode", "server.encode", "server.insert_handler",
		"admission.acquire", "shard.search", "core.search", "core.insert",
		"graph.search", "vec.rowdist", "pq.search", "pq.table_build", "hnsw.insert",
	} {
		med(name+"_us", byName[name])
	}
	med("server.self_us", self("server.handler", func(k map[string][]float64) float64 {
		return first(k["shard.search"]) + first(k["admission.acquire"])
	}))
	if s.wl.Shards > 1 {
		med("shard.self_us", self("shard.search", func(k map[string][]float64) float64 { return maxOf(k["core.search"]) }))
	} else {
		res.set("shard.self_us", 0, 0) // one shard: Group.SearchStale is a direct call of the fixer
	}
	med("core.self_us", self("core.search", func(k map[string][]float64) float64 {
		return first(k["graph.search"]) + first(k["pq.search"])
	}))
	med("graph.self_us", self("graph.search", func(k map[string][]float64) float64 { return first(k["vec.rowdist"]) }))

	searches := float64(counts.searches)
	perQuery := func(total int64) float64 {
		if searches == 0 {
			return 0
		}
		return float64(total) / searches
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	if s.wl.PQ {
		res.set("graph.ndc_per_query", 0, 0)
		res.set("graph.hops_per_query", 0, 0)
		res.set("graph.ns_per_ndc", 0, 0)
		res.set("vec.ns_per_dist", 0, 0)
		res.set("vec.bytes_per_query", 0, 0)
		res.set("pq.adc_per_query", perQuery(counts.adc), counts.searches)
		res.set("pq.rerank_ndc_per_query", perQuery(counts.ndc), counts.searches)
		res.set("pq.ns_per_adc", ratio((sum(byName["pq.search"])-sum(byName["pq.table_build"]))*1000, float64(counts.adc)), counts.searches)
	} else {
		res.set("graph.ndc_per_query", perQuery(counts.ndc), counts.searches)
		res.set("graph.hops_per_query", perQuery(counts.hops), counts.searches)
		res.set("graph.ns_per_ndc", ratio(sum(byName["graph.search"])*1000, float64(counts.ndc)), counts.searches)
		res.set("vec.ns_per_dist", ratio(sum(byName["vec.rowdist"])*1000, float64(counts.ndc)), counts.searches)
		res.set("vec.bytes_per_query", perQuery(counts.ndc)*float64(s.in.sz.Dim)*4, counts.searches)
		res.set("pq.adc_per_query", 0, 0)
		res.set("pq.rerank_ndc_per_query", 0, 0)
		res.set("pq.ns_per_adc", 0, 0)
	}
	appends := sortedCopy(byName["persist.append"])
	res.set("persist.append_p50_us", percentile(appends, 50), len(appends))
	res.set("persist.append_p99_us", percentile(appends, 99), len(appends))
	res.set("persist.wal_bytes_per_insert", ratio(float64(counts.walBytes), float64(counts.inserts)), counts.inserts)
	res.set("persist.snapshot_ms", median(counts.snapshotMS), len(counts.snapshotMS))
	res.set("persist.snapshot_bytes", float64(counts.snapBytes), 0)
}

// recallLoss is how many points of recall@k the fused PQ path gives up
// against the full-precision path on the same graph at the same ef,
// over the probe queries.
func (s *stack) recallLoss() float64 {
	in, wl := s.in, s.wl
	g := s.fixers[0].Index().G
	full := graph.NewSearcher(g)
	fused := pq.NewGraphSearcher(g, s.quant[0])
	fused.Tier, fused.Rerank = s.tiers[0], 4*wl.K
	probes := in.ds.TestOOD.Slice(in.sz.Test, in.sz.Test+in.sz.Probe)
	truth := bruteforce.AllKNN(g.Vectors, probes, vec.Cosine, wl.K)
	var fullHits, fusedHits, want int
	for i := 0; i < probes.Rows(); i++ {
		ids := map[uint32]bool{}
		for _, t := range truth[i] {
			ids[t.ID] = true
		}
		want += len(truth[i])
		a, _ := full.SearchFromCtx(context.Background(), probes.Row(i), wl.K, wl.EF, g.EntryPoint)
		b, _ := fused.SearchCtx(context.Background(), probes.Row(i), wl.K, wl.EF)
		for _, h := range a {
			if ids[h.ID] {
				fullHits++
			}
		}
		for _, h := range b {
			if ids[h.ID] {
				fusedHits++
			}
		}
	}
	return 100 * float64(fullHits-fusedHits) / float64(want)
}

func writeTrace(outDir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed, "layers are replayed one after another from the outside in; parent is the caller on the real request path", spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

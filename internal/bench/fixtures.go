package bench

import (
	"fmt"
	"sync"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/nsg"
	"ngfix/internal/roargraph"
	"ngfix/internal/taumng"
	"ngfix/internal/vec"
)

// K is the result-set size all experiments report recall at. The paper
// reports recall@100 on 10M-point datasets; at this repository's ~8k-point
// scale recall@10 probes an equally selective neighborhood.
const K = 10

// GTDepth is how many exact neighbors are precomputed per query: enough
// for the deepest fixing round (KMax = 2·30) and for recall@K.
const GTDepth = 64

// Fixture bundles a generated dataset with everything experiments reuse:
// exact test ground truth, exact history ground truth, and a pristine HNSW
// base graph that experiments Clone before mutating.
type Fixture struct {
	D         *dataset.Dataset
	GTOOD     [][]bruteforce.Neighbor // exact top-GTDepth for TestOOD
	GTID      [][]bruteforce.Neighbor // exact top-GTDepth for TestID
	HistTruth [][]bruteforce.Neighbor // exact top-GTDepth for History
	baseHNSW  *graph.Graph            // pristine bottom layer; do not mutate
	HNSWTime  time.Duration           // wall-clock of the HNSW build
}

// Base returns a private copy of the pristine HNSW bottom-layer graph.
func (f *Fixture) Base() *graph.Graph { return f.baseHNSW.Clone() }

var (
	fixMu    sync.Mutex
	fixCache = map[string]*Fixture{}
)

// hnswConfig is the shared base-graph build setting (paper: M=32,
// efC=1000 at 10M scale; scaled down here with the dataset sizes).
func hnswConfig(metric vec.Metric) hnsw.Config {
	return hnsw.Config{M: 16, EFConstruction: 200, Metric: metric}
}

// GetFixture builds (or returns the cached) fixture for a recipe.
func GetFixture(cfg dataset.Config) *Fixture {
	fixMu.Lock()
	defer fixMu.Unlock()
	key := fmt.Sprintf("%s/%d/%d", cfg.Name, cfg.N, cfg.NHist)
	if f, ok := fixCache[key]; ok {
		return f
	}
	d := dataset.Generate(cfg)
	start := time.Now()
	h := hnsw.Build(d.Base, hnswConfig(cfg.Metric))
	hnswTime := time.Since(start)
	f := &Fixture{
		D:         d,
		GTOOD:     bruteforce.AllKNN(d.Base, d.TestOOD, cfg.Metric, GTDepth),
		GTID:      bruteforce.AllKNN(d.Base, d.TestID, cfg.Metric, GTDepth),
		HistTruth: bruteforce.AllKNN(d.Base, d.History, cfg.Metric, GTDepth),
		baseHNSW:  h.Bottom(),
		HNSWTime:  hnswTime,
	}
	fixCache[key] = f
	return f
}

// ResetFixtures clears the cache (tests use this to bound memory).
func ResetFixtures() {
	fixMu.Lock()
	defer fixMu.Unlock()
	fixCache = map[string]*Fixture{}
}

// defaultOptions is the paper's two-round NGFix* schedule scaled down:
// round 1 with K=30 (+RFix), round 2 with K=10.
func defaultOptions() core.Options {
	return core.Options{
		Rounds: []core.Round{{K: 30, RFix: true}, {K: 10}},
		LEx:    48,
		RFixL:  60,
	}
}

// BuildNGFix clones the fixture's base graph and applies NGFix* with the
// first histCount historical queries (0 → all). It returns the index, the
// fixing report, and the fixing wall-clock (excluding the base build).
func BuildNGFix(f *Fixture, histCount int, opts core.Options) (*core.Index, core.FixReport, time.Duration) {
	if histCount <= 0 || histCount > f.D.History.Rows() {
		histCount = f.D.History.Rows()
	}
	ix := core.New(f.Base(), opts)
	start := time.Now()
	rep := ix.Fix(f.D.History.Slice(0, histCount), f.HistTruth[:histCount])
	return ix, rep, time.Since(start)
}

// BuildNGFixApprox is BuildNGFix with approximate-NN preprocessing
// (searching the base graph with list size ef) instead of exact truth —
// the fast construction path of §5.1.
func BuildNGFixApprox(f *Fixture, histCount, ef int, opts core.Options) (*core.Index, time.Duration) {
	if histCount <= 0 || histCount > f.D.History.Rows() {
		histCount = f.D.History.Rows()
	}
	ix := core.New(f.Base(), opts)
	start := time.Now()
	hist := f.D.History.Slice(0, histCount)
	truth := ix.ApproxTruth(hist, GTDepth, ef)
	ix.Fix(hist, truth)
	return ix, time.Since(start)
}

// BuildNSG builds the NSG baseline over the fixture's base vectors,
// returning the graph and build time (including its kNN-graph phase, done
// approximately via the HNSW base graph as real deployments do).
func BuildNSG(f *Fixture) (*graph.Graph, time.Duration) {
	start := time.Now()
	knn := graph.ApproxKNNGraph(f.Base(), 32, 100)
	g := nsg.Build(f.D.Base, knn, nsg.Config{R: 24, L: 60, C: 200, Metric: f.D.Config.Metric})
	return g, time.Since(start)
}

// BuildTauMNG builds the τ-MNG baseline (single-modal figures).
func BuildTauMNG(f *Fixture, tau float32) (*graph.Graph, time.Duration) {
	start := time.Now()
	knn := graph.ApproxKNNGraph(f.Base(), 32, 100)
	g := taumng.Build(f.D.Base, knn, taumng.Config{R: 24, L: 60, C: 200, Tau: tau, Metric: f.D.Config.Metric})
	return g, time.Since(start)
}

// BuildRoar builds the RoarGraph baseline with the first histCount
// historical queries (0 → all).
func BuildRoar(f *Fixture, histCount int) (*graph.Graph, time.Duration) {
	if histCount <= 0 || histCount > f.D.History.Rows() {
		histCount = f.D.History.Rows()
	}
	start := time.Now()
	g := roargraph.Build(f.D.Base, f.D.History.Slice(0, histCount), roargraph.Config{
		M: 24, KQ: 24, L: 60, Metric: f.D.Config.Metric,
	})
	return g, time.Since(start)
}

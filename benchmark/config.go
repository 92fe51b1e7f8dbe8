package main

import "strconv"

// sizes fixes how much data one run generates. The workload seed moves
// the values, never the shapes.
type sizes struct {
	N        int // corpus rows
	Dim      int
	Clusters int
	Hist     int // history queries replayed and fixed during set-up
	Test     int // distinct OOD test queries, cycled by the timed phases
	Probe    int // held-out OOD queries for the recall probe
}

// fullSizes is what BENCHMARK.json measures. ISSUE 12 asks for
// N = 100 000 and 2 000 history queries; the driver's time cap (92 runs
// in 3420 s, set-up repeated three times per run) leaves ~4 s per
// set-up, which on the two-core sandbox is an HNSW build over 10 000
// rows plus one 1 000-query fix batch. The 5 MB matrix still exceeds
// the 2 MB per-core L2.
var fullSizes = sizes{N: 10000, Dim: 128, Clusters: 64, Hist: 1000, Test: 10000, Probe: 500}

// smokeSizes keeps `go test` in seconds.
var smokeSizes = sizes{N: 2000, Dim: 32, Clusters: 16, Hist: 200, Test: 1000, Probe: 100}

const (
	// sloMS is the search latency limit of every workload: an open-loop
	// request that fails, is refused or takes longer misses it.
	sloMS = 5.0
	// setupRepeats is how many times a measured run performs the whole
	// set-up; setup_s is the median, the last server is the one measured.
	setupRepeats = 3
	// phaseWindows splits each timed phase; a reported rate or percentile
	// is the median over the windows, so one scheduler or GC hiccup moves
	// one window, not the metric.
	phaseWindows = 5
	// untracedRequests is the in-process ServeHTTP-only pass that gives
	// the allocation counts and the base of trace.overhead_ratio;
	// traceRequests is the pass that records spans. Both are fixed
	// counts, not durations, so the count metrics repeat exactly at one
	// seed.
	untracedRequests = 1000
	traceRequests    = 2000
	// durabilitySample is how many acknowledged inserts mix-2shard looks
	// up again before the SIGKILL and after the restart.
	durabilitySample = 200
)

// workload is one traffic mix against one server configuration.
type workload struct {
	Name string
	Why  string // one line for BENCHMARK.json
	K    int
	EF   int
	// Shards > 1, PQ and InsertEvery > 0 select the server flags.
	Shards      int
	PQ          bool
	InsertEvery int // every n-th operation (by seeded schedule) is an insert; 0 is read-only
	// FixBatch is -fix-batch, the capacity of the recorded-query buffer
	// and so the size of one fix batch. The read-only workloads take the
	// whole history in one deterministic batch; mix-2shard keeps the
	// server's default, because background repair fixes a full buffer
	// every second under the shard's write lock.
	FixBatch int
	// OpenRateQPS is the fixed offered load of the open-loop phase: half
	// of this PR's median closed-loop search_qps on the sandbox, two
	// significant figures. Never derived at run time, so parent and
	// change always see the same load.
	OpenRateQPS float64
	// RecallFloor fails the run when the probe's recall@10 falls below it
	// (lowest value seen over calibration seeds 1-40, minus 0.04: the
	// driver picks its own seeds, and recall moves by 0.02 between seeds).
	RecallFloor float64
}

var workloads = []workload{
	{
		Name: "ood-ef64", K: 10, EF: 64, Shards: 1, FixBatch: 2000,
		Why:         "read-only OOD queries at ef=64 on the repaired graph: beam search and distance kernels dominate",
		OpenRateQPS: 2200, RecallFloor: 0.75,
	},
	{
		Name: "ood-ef10", K: 10, EF: 10, Shards: 1, FixBatch: 2000,
		Why:         "same server and data at ef=10: search shrinks, so JSON, admission and query recording dominate",
		OpenRateQPS: 3200, RecallFloor: 0.31,
	},
	{
		Name: "pq-ef64", K: 10, EF: 64, Shards: 1, FixBatch: 2000, PQ: true,
		Why:         "fused PQ-ADC navigation with exact rerank from the mmap tier: table build and scored beam loop",
		OpenRateQPS: 2200, RecallFloor: 0.47,
	},
	{
		Name: "mix-2shard", K: 10, EF: 64, Shards: 2, FixBatch: 32, InsertEvery: 10,
		Why:         "90% search, 10% fsynced inserts on two shards with snapshots and background repair: locks and tail",
		OpenRateQPS: 1400, RecallFloor: 0.80,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// persists reports whether the server gets a snapshot directory: the PQ
// tier file and the op log both live there.
func (wl workload) persists() bool { return wl.PQ || wl.InsertEvery > 0 }

// serverArgs is the command line of ngfix-server for wl. base is the
// generated corpus file, dir the run's scratch directory.
func (wl workload) serverArgs(base, dir, addr string) []string {
	args := []string{
		"-base", base, "-metric", "cosine", "-m", "16", "-efc", "100",
		"-lex", "48", "-fix-batch", strconv.Itoa(wl.FixBatch), "-addr", addr,
	}
	if wl.persists() {
		args = append(args, "-snapshot-dir", dir+"/state")
	}
	if wl.PQ {
		args = append(args, "-pq", "-pq-m", "16", "-pq-ks", "256", "-pq-rerank", "4", "-pq-tier")
	}
	if wl.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(wl.Shards))
	}
	if wl.InsertEvery > 0 {
		args = append(args, "-snapshot-ops", "512", "-fix-interval", "1s", "-repair-mode", "adaptive")
	}
	return args
}

// metricDef names one reported number. The names are the vocabulary
// later issues use; BENCHMARK.json is generated from this table (see
// manifest.go) and a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the regression bound: a share of the parent's median, or
	// an absolute difference when Absolute is set. Zero means ungated.
	Bound    float64
	Absolute bool
	// Contract marks the end-to-end metrics BENCHMARK.json carries: they
	// are reported by every workload, are never 0, and repeat within a
	// third of their bound. The other end-to-end metrics (ratios that are
	// 0 on a healthy run, insert latencies that only mix-2shard has, the
	// two that do not repeat) are gated by `compare` alone and listed
	// under per_layer in BENCHMARK.json.
	Contract bool
}

// endToEnd is what a client of ngfix-server sees. The bounds come from
// two ten-seed sets of runs on the two-core sandbox (README, "Bounds"):
// the machine drifts by several percent over tens of seconds, which no
// amount of averaging inside a 10 s run removes, so a timing is gated at
// three times the spread seen. Metrics whose spread on some workload is
// well above a tenth (the p99s: they amplify the drift, and on mix-2shard
// the open-loop tail is set by whether the two shards' fix batches abut;
// rss_peak_mb: the peak depends on where a GC cycle falls) are demoted
// from the contract rather than given a bound that would hide anything.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "search_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "open_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "recall_at_10", Unit: "ratio", Better: "higher", Bound: 0.14, Contract: true},
	{Name: "search_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "open_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "mb", Better: "lower", Bound: 0.25},
	{Name: "open_slo_miss_ratio", Unit: "ratio", Better: "lower", Bound: 0.002, Absolute: true},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0.002, Absolute: true},
	{Name: "insert_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "insert_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is the account under the end-to-end numbers; layer = package
// name. Ungated: these explain a movement, they do not judge it.
var perLayer = []metricDef{
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_search", Unit: "count", Better: "lower"},
	{Name: "server.bytes_per_search", Unit: "bytes", Better: "lower"},
	{Name: "server.insert_handler_us", Unit: "us", Better: "lower"},
	{Name: "admission.acquire_us", Unit: "us", Better: "lower"},
	{Name: "admission.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admission.clamped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.search_us", Unit: "us", Better: "lower"},
	{Name: "shard.self_us", Unit: "us", Better: "lower"},
	{Name: "core.search_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "core.recorded_shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.insert_us", Unit: "us", Better: "lower"},
	{Name: "core.fix_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fix_edges_added", Unit: "count", Better: "higher"},
	{Name: "graph.search_us", Unit: "us", Better: "lower"},
	{Name: "graph.self_us", Unit: "us", Better: "lower"},
	{Name: "graph.ns_per_ndc", Unit: "ns", Better: "lower"},
	{Name: "graph.ndc_per_query", Unit: "count", Better: "lower"},
	{Name: "graph.hops_per_query", Unit: "count", Better: "lower"},
	{Name: "graph.avg_degree_base", Unit: "count", Better: "lower"},
	{Name: "graph.avg_degree_extra", Unit: "count", Better: "lower"},
	{Name: "vec.rowdist_us", Unit: "us", Better: "lower"},
	{Name: "vec.ns_per_dist", Unit: "ns", Better: "lower"},
	{Name: "vec.bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "pq.table_build_us", Unit: "us", Better: "lower"},
	{Name: "pq.search_us", Unit: "us", Better: "lower"},
	{Name: "pq.ns_per_adc", Unit: "ns", Better: "lower"},
	{Name: "pq.adc_per_query", Unit: "count", Better: "lower"},
	{Name: "pq.rerank_ndc_per_query", Unit: "count", Better: "lower"},
	{Name: "pq.resident_vector_mb", Unit: "mb", Better: "lower"},
	{Name: "pq.full_vector_mb", Unit: "mb", Better: "lower"},
	{Name: "pq.train_s", Unit: "s", Better: "lower"},
	{Name: "pq.recall_loss_pts", Unit: "pts", Better: "lower"},
	{Name: "persist.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "persist.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "persist.wal_bytes_per_insert", Unit: "bytes", Better: "lower"},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshots", Unit: "count", Better: "lower"},
	{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "persist.recovery_s", Unit: "s", Better: "lower"},
	{Name: "persist.replayed_ops", Unit: "count", Better: "lower"},
	{Name: "hnsw.build_s", Unit: "s", Better: "lower"},
	{Name: "hnsw.insert_us", Unit: "us", Better: "lower"},
	{Name: "repair.batches", Unit: "count", Better: "higher"},
	{Name: "repair.deferred", Unit: "count", Better: "lower"},
	{Name: "repair.fix_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dataset.generate_s", Unit: "s", Better: "lower"},
	{Name: "client.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "search_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

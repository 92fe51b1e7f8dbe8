package bench

// Performance harness behind `make bench`: a kernel micro-benchmark and a
// search macro-benchmark, each emitting machine-readable JSON
// (BENCH_kernels.json / BENCH_search.json). Both run every available
// dispatch arm — scalar-forced and SIMD — in the same process, so one
// invocation produces a before/after comparison from the same machine.
// All data is generated from fixed seeds; only the wall-clock varies.

import (
	"encoding/json"
	"io"
	"math/rand"
	"runtime"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// PerfEnv records where a perf run happened.
type PerfEnv struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	SIMDKernel string `json:"simd_kernel"` // best kernel detected ("scalar" if none)
	Short      bool   `json:"short"`
	Timestamp  string `json:"timestamp"`
}

func perfEnv(short bool) PerfEnv {
	return PerfEnv{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		SIMDKernel: vec.BestKernelName(),
		Short:      short,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// KernelResult is one (operation, dimension, dispatch arm) measurement.
type KernelResult struct {
	Op      string  `json:"op"`           // "l2" | "dot" | "batch_l2" | "subspace_per_row" | "subspace_fused"
	Dim     int     `json:"dim"`          // vector dimension (sub-vector length for the subspace ops)
	KS      int     `json:"ks,omitempty"` // centroids per call (subspace ops only)
	Arm     string  `json:"arm"`          // "scalar" | "simd"
	Kernel  string  `json:"kernel"`       // active kernel name during the run
	NsPerOp float64 `json:"ns_per_op"`
	OpsPerS float64 `json:"ops_per_sec"` // distance evaluations per second
}

// KernelSpeedup is the scalar-vs-SIMD headline per (op, dim).
type KernelSpeedup struct {
	Op      string  `json:"op"`
	Dim     int     `json:"dim"`
	Speedup float64 `json:"speedup"` // scalar ns_per_op / simd ns_per_op
}

// SubspaceSpeedup is the per-row-vs-fused headline of the product
// quantization inner loop, per (shape, arm).
type SubspaceSpeedup struct {
	Sub     int     `json:"sub"`
	KS      int     `json:"ks"`
	Arm     string  `json:"arm"`
	Speedup float64 `json:"speedup"` // subspace_per_row ns_per_op / subspace_fused ns_per_op
}

// KernelReport is the BENCH_kernels.json payload.
type KernelReport struct {
	Env              PerfEnv           `json:"env"`
	Results          []KernelResult    `json:"results"`
	Speedups         []KernelSpeedup   `json:"speedups,omitempty"`
	SubspaceSpeedups []SubspaceSpeedup `json:"subspace_speedups,omitempty"`
}

// sinkF32 defeats dead-code elimination of benchmark loops.
var sinkF32 float32

// benchNs measures fn's per-iteration cost, auto-scaling the iteration
// count until a run takes at least minTime.
func benchNs(minTime time.Duration, fn func(iters int)) float64 {
	fn(1) // warm caches and page in data before timing
	iters := 1
	for {
		start := time.Now()
		fn(iters)
		elapsed := time.Since(start)
		if elapsed >= minTime {
			return elapsed.Seconds() * 1e9 / float64(iters)
		}
		if elapsed <= 0 {
			iters *= 1000
			continue
		}
		grow := float64(minTime)/float64(elapsed)*1.2 + 1
		if grow > 1000 {
			grow = 1000
		}
		iters = int(float64(iters) * grow)
	}
}

// kernelBenchDims are the micro-bench dimensions: the paper-typical
// embedding sizes plus a few smaller shapes (short mode keeps only the
// two dimensions the acceptance criteria name).
func kernelBenchDims(short bool) []int {
	if short {
		return []int{128, 768}
	}
	return []int{16, 32, 64, 100, 128, 256, 768}
}

// batchRows is the matrix height for the batch_l2 measurement: big enough
// to amortize call overhead, small enough to stay cache-resident like a
// beam-search gather.
const batchRows = 1024

// subspaceShapes are the (sub-vector length, centroids) shapes of the
// subspace rows: the serving benchmark's quantizer (dim 128, M 16, KS 256)
// and the default config's (dim 128, M 8, KS 64).
var subspaceShapes = [][2]int{{8, 256}, {16, 64}}

// RunKernelBench measures L2Squared, Dot, the batched row-distance kernel,
// and product quantization's centroid scan — one call per centroid row
// against one fused call over a dimension-major codebook — on both
// dispatch arms with fixed-seed inputs.
func RunKernelBench(short bool) KernelReport {
	rep := KernelReport{Env: perfEnv(short)}
	minTime := 100 * time.Millisecond
	if short {
		minTime = 20 * time.Millisecond
	}

	arms := []struct {
		name string
		simd bool
	}{{"scalar", false}}
	if vec.SIMDAvailable() {
		arms = append(arms, struct {
			name string
			simd bool
		}{"simd", true})
	}
	defer vec.SetSIMD(true)

	rng := rand.New(rand.NewSource(101))
	for _, dim := range kernelBenchDims(short) {
		x := make([]float32, dim)
		y := make([]float32, dim)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
			y[i] = rng.Float32()*2 - 1
		}
		m := vec.NewMatrix(batchRows, dim)
		for r := 0; r < batchRows; r++ {
			row := m.Row(r)
			for i := range row {
				row[i] = rng.Float32()*2 - 1
			}
		}
		out := make([]float32, batchRows)

		for _, arm := range arms {
			vec.SetSIMD(arm.simd)
			kernel := vec.KernelName()
			add := func(op string, ns float64) {
				rep.Results = append(rep.Results, KernelResult{
					Op: op, Dim: dim, Arm: arm.name, Kernel: kernel,
					NsPerOp: ns, OpsPerS: 1e9 / ns,
				})
			}
			add("l2", benchNs(minTime, func(iters int) {
				var s float32
				for i := 0; i < iters; i++ {
					s += vec.L2Squared(x, y)
				}
				sinkF32 += s
			}))
			add("dot", benchNs(minTime, func(iters int) {
				var s float32
				for i := 0; i < iters; i++ {
					s += vec.Dot(x, y)
				}
				sinkF32 += s
			}))
			// batch_l2 is ns per row distance, matching how the search
			// loop consumes the kernel.
			nsBatch := benchNs(minTime, func(iters int) {
				for i := 0; i < iters; i++ {
					vec.DistancesRows(vec.L2, x, m, 0, batchRows, out)
				}
				sinkF32 += out[0]
			})
			add("batch_l2", nsBatch/batchRows)
		}
	}

	for _, shape := range subspaceShapes {
		sub, ks := shape[0], shape[1]
		x := make([]float32, sub)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		cents := vec.NewMatrix(ks, sub) // row-major: the per-row path's layout
		cols := make([]float32, sub*ks) // the same centroids, dimension-major
		for c := 0; c < ks; c++ {
			for j := range cents.Row(c) {
				v := rng.Float32()*2 - 1
				cents.Row(c)[j] = v
				cols[j*ks+c] = v
			}
		}
		out := make([]float32, ks)
		for _, arm := range arms {
			vec.SetSIMD(arm.simd)
			// Both are ns per centroid distance, like batch_l2.
			perRow := benchNs(minTime, func(iters int) {
				for i := 0; i < iters; i++ {
					vec.DistancesRows(vec.L2, x, cents, 0, ks, out)
				}
				sinkF32 += out[0]
			}) / float64(ks)
			fused := benchNs(minTime, func(iters int) {
				for i := 0; i < iters; i++ {
					vec.SubspaceL2(x, cols, ks, out)
				}
				sinkF32 += out[0]
			}) / float64(ks)
			for _, r := range []struct {
				op string
				ns float64
			}{{"subspace_per_row", perRow}, {"subspace_fused", fused}} {
				rep.Results = append(rep.Results, KernelResult{
					Op: r.op, Dim: sub, KS: ks, Arm: arm.name, Kernel: vec.KernelName(),
					NsPerOp: r.ns, OpsPerS: 1e9 / r.ns,
				})
			}
			rep.SubspaceSpeedups = append(rep.SubspaceSpeedups, SubspaceSpeedup{
				Sub: sub, KS: ks, Arm: arm.name, Speedup: perRow / fused,
			})
		}
	}

	rep.Speedups = kernelSpeedups(rep.Results)
	return rep
}

// kernelSpeedups pairs scalar and simd rows into per-(op,dim) ratios.
func kernelSpeedups(results []KernelResult) []KernelSpeedup {
	type key struct {
		op  string
		dim int
	}
	scalar := map[key]float64{}
	for _, r := range results {
		if r.Arm == "scalar" {
			scalar[key{r.Op, r.Dim}] = r.NsPerOp
		}
	}
	var out []KernelSpeedup
	for _, r := range results {
		if r.Arm != "simd" {
			continue
		}
		if s, ok := scalar[key{r.Op, r.Dim}]; ok && r.NsPerOp > 0 {
			out = append(out, KernelSpeedup{Op: r.Op, Dim: r.Dim, Speedup: s / r.NsPerOp})
		}
	}
	return out
}

// SearchPoint is one ef operating point of the macro-bench.
type SearchPoint struct {
	EF       int     `json:"ef"`
	Recall   float64 `json:"recall_at_10"`
	QPS      float64 `json:"qps"`
	NDC      float64 `json:"ndc_per_query"`
	NDCPerS  float64 `json:"ndc_per_sec"`
	LatP50US float64 `json:"lat_p50_us"`
	LatP99US float64 `json:"lat_p99_us"`
}

// SearchArm is one dispatch arm's full sweep.
type SearchArm struct {
	Arm    string        `json:"arm"`
	Kernel string        `json:"kernel"`
	Points []SearchPoint `json:"points"`
}

// SearchReport is the BENCH_search.json payload.
type SearchReport struct {
	Env     PerfEnv     `json:"env"`
	Dataset string      `json:"dataset"`
	NBase   int         `json:"n_base"`
	NQuery  int         `json:"n_query"`
	Dim     int         `json:"dim"`
	K       int         `json:"k"`
	Arms    []SearchArm `json:"arms"`
	// QPSSpeedup compares the arms' mean QPS across the shared ef sweep
	// (simd / scalar); 0 when only one arm ran.
	QPSSpeedup float64 `json:"qps_speedup,omitempty"`
}

// RunSearchBench builds an HNSW base graph on the text-to-image recipe and
// sweeps beam search over the OOD query set on both dispatch arms. The
// graph, queries, and ground truth are identical across arms (fixed
// seeds); only the distance kernels differ, so the recall column doubles
// as a correctness cross-check (the arms must agree to ~ulp level).
func RunSearchBench(short bool) SearchReport {
	scale := dataset.Scale(1.0)
	efs := []int{10, 20, 40, 80, 160}
	if short {
		scale = dataset.Scale(0.25)
		efs = []int{10, 40}
	}
	cfg := dataset.TextToImage(scale)
	d := dataset.Generate(cfg)
	g := hnsw.Build(d.Base, hnswConfig(cfg.Metric)).Bottom()
	gt := bruteforce.AllKNN(d.Base, d.TestOOD, cfg.Metric, K)

	rep := SearchReport{
		Env:     perfEnv(short),
		Dataset: cfg.Name,
		NBase:   d.Base.Rows(),
		NQuery:  d.TestOOD.Rows(),
		Dim:     d.Base.Dim(),
		K:       K,
	}

	arms := []struct {
		name string
		simd bool
	}{{"scalar", false}}
	if vec.SIMDAvailable() {
		arms = append(arms, struct {
			name string
			simd bool
		}{"simd", true})
	}
	defer vec.SetSIMD(true)

	var meanQPS [2]float64
	for ai, arm := range arms {
		vec.SetSIMD(arm.simd)
		s := graph.NewSearcher(g)
		curve := metrics.SweepFunc(s.Search, metrics.SweepConfig{
			K: K, EFs: efs, Queries: d.TestOOD, Truth: gt,
		})
		sa := SearchArm{Arm: arm.name, Kernel: vec.KernelName()}
		for _, p := range curve {
			sa.Points = append(sa.Points, SearchPoint{
				EF: p.EF, Recall: p.Recall, QPS: p.QPS, NDC: p.NDC,
				NDCPerS: p.NDC * p.QPS, LatP50US: p.LatP50US, LatP99US: p.LatP99US,
			})
			meanQPS[ai] += p.QPS
		}
		meanQPS[ai] /= float64(len(curve))
		rep.Arms = append(rep.Arms, sa)
	}
	if len(arms) == 2 && meanQPS[0] > 0 {
		rep.QPSSpeedup = meanQPS[1] / meanQPS[0]
	}
	return rep
}

// WriteJSON renders any perf report as indented JSON.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

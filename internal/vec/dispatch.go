package vec

import "os"

// kernelSet is one complete implementation of the distance kernels. All
// public entry points route through the active set, selected once at
// package init.
type kernelSet struct {
	name string
	l2   func(x, y []float32) float32
	dot  func(x, y []float32) float32
	// subL2 is the batched sub-space kernel behind SubspaceL2; len(out)
	// is the centroid count.
	subL2 func(x, cols, out []float32)
	// argmin is the kernel behind ArgMin; d is non-empty.
	argmin func(d []float32) int
}

var scalarKernels = kernelSet{name: "scalar", l2: l2Scalar, dot: dotScalar, subL2: subL2Scalar, argmin: argminScalar}

// best is the fastest set the CPU supports (detected at init);
// active is what the package currently routes through. They differ only
// when SIMD has been disabled via SetSIMD or NGFIX_DISABLE_SIMD.
var (
	best   = scalarKernels
	active = scalarKernels
)

func init() {
	best = detectKernels()
	active = best
	if simdDisabledByEnv() {
		active = scalarKernels
	}
}

// simdDisabledByEnv reports whether the NGFIX_DISABLE_SIMD environment
// variable asks for the portable scalar kernels ("" and "0" mean no).
func simdDisabledByEnv() bool {
	v := os.Getenv("NGFIX_DISABLE_SIMD")
	return v != "" && v != "0"
}

// SetSIMD routes the kernels through the best detected SIMD implementation
// (on) or the portable scalar reference (off), and reports whether a SIMD
// implementation is now active — false when the CPU has none to offer.
// The switch is process-global and not synchronized: call it at startup or
// from tests, never concurrently with running searches.
func SetSIMD(on bool) bool {
	if on {
		active = best
	} else {
		active = scalarKernels
	}
	return active.name != scalarKernels.name
}

// SIMDAvailable reports whether a SIMD kernel set was detected for this
// CPU, regardless of whether it is currently active.
func SIMDAvailable() bool { return best.name != scalarKernels.name }

// KernelName identifies the active kernel set: "avx2", "neon", or
// "scalar". Benchmarks record it so BENCH_*.json artifacts are
// self-describing.
func KernelName() string { return active.name }

// BestKernelName identifies the fastest kernel set detected for this CPU,
// even when the scalar fallback is currently forced.
func BestKernelName() string { return best.name }

// DistancesBatch computes met.Distance(q, m.Row(id)) for every id in ids
// into out[i]. out must have at least len(ids) entries. The rows live in
// one contiguous row-major allocation, so the scan streams linearly
// through memory; the metric dispatch and (for cosine) the query norm are
// hoisted out of the loop.
func DistancesBatch(met Metric, q []float32, m *Matrix, ids []uint32, out []float32) {
	d := NewQueryDistancer(met, q, nil)
	d.RowDistances(m, ids, out)
}

// DistancesRows computes met.Distance(q, m.Row(i)) for the contiguous row
// range [lo, hi) into out[i-lo]. out must have at least hi-lo entries.
func DistancesRows(met Metric, q []float32, m *Matrix, lo, hi int, out []float32) {
	d := NewQueryDistancer(met, q, nil)
	d.RowDistancesRange(m, lo, hi, out)
}

// SubspaceL2 writes into out[c] the squared L2 distance from the
// sub-vector x to centroid c, for every c in [0, ks). The ks centroids are
// stored dimension-major: cols[j*ks+c] is coordinate j of centroid c, so
// len(cols) must be len(x)*ks, and out must have at least ks entries.
//
// This is product quantization's inner loop (k-means assignment, encoding,
// the per-query ADC table): sub-vectors are a handful of floats long, so
// one kernel call per centroid spends its time on call overhead and a
// horizontal reduction. Here one call scores all ks centroids, each SIMD
// lane owning one centroid and accumulating over the coordinates, with no
// reduction at all. The summation order therefore differs from L2Squared's
// (as that one's differs between arms): compare these scores only with
// each other.
func SubspaceL2(x, cols []float32, ks int, out []float32) {
	if ks < 0 || len(cols) != len(x)*ks || len(out) < ks {
		panic("vec: SubspaceL2 shape mismatch")
	}
	active.subL2(x, cols, out[:ks])
}

// ArgMin returns the index of the first smallest entry of d, which must be
// non-empty and NaN-free. It is the other half of product quantization's
// assignment step — SubspaceL2 scores the centroids, ArgMin picks one —
// and unlike the distance kernels it is exact: every arm returns the same
// index for the same input.
func ArgMin(d []float32) int {
	if len(d) == 0 {
		panic("vec: ArgMin of empty slice")
	}
	return active.argmin(d)
}

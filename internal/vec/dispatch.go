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
	// l2Rows and dotRows are the gather kernels behind
	// QueryDistancer.RowDistances: out[i] = l2/dot(q, m.Row(ids[i])), bit
	// for bit what the single-row kernel returns, for every id in one call.
	// len(q) == m.Dim(), every id is a row of m, len(out) >= len(ids).
	l2Rows  func(q []float32, m *Matrix, ids []uint32, out []float32)
	dotRows func(q []float32, m *Matrix, ids []uint32, out []float32)
	// adc is the kernel behind ADCRows, with its arguments checked.
	adc func(table []float32, codes []byte, m int, ids []uint32, out []float32)
}

var scalarKernels = kernelSet{
	name: "scalar", l2: l2Scalar, dot: dotScalar, subL2: subL2Scalar, argmin: argminScalar,
	l2Rows: l2RowsScalar, dotRows: dotRowsScalar, adc: adcScalar,
}

func l2RowsScalar(q []float32, m *Matrix, ids []uint32, out []float32) {
	gatherRows(l2Scalar, q, m, ids, out)
}

func dotRowsScalar(q []float32, m *Matrix, ids []uint32, out []float32) {
	gatherRows(dotScalar, q, m, ids, out)
}

// gatherRows is the portable gather: one single-row kernel call per id.
func gatherRows(kernel func(x, y []float32) float32, q []float32, m *Matrix, ids []uint32, out []float32) {
	for i, id := range ids {
		out[i] = kernel(q, m.Row(int(id)))
	}
}

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

// ADCStride is the row stride of the tables ADCRows reads: one entry per
// possible code byte, so that any byte indexes its row in bounds.
const ADCStride = 256

// ADCRows writes into out[i] the asymmetric distance of code row ids[i]:
// the sum over its m code bytes c_j = codes[ids[i]*m+j] of
// table[j*ADCStride+c_j], added in j order one float32 addition at a time,
// so every arm returns a plain sequential loop's bits. A product-quantized
// beam search scores each hop's neighbours with one call. table must hold
// m*ADCStride floats, out at least len(ids), and every id must name a row
// of codes.
func ADCRows(table []float32, codes []byte, m int, ids []uint32, out []float32) {
	if m <= 0 || len(table) < m*ADCStride || len(out) < len(ids) {
		panic("vec: ADCRows shape mismatch")
	}
	rows := uint32(len(codes) / m)
	for _, id := range ids {
		if id >= rows {
			panic("vec: ADCRows id out of range")
		}
	}
	active.adc(table, codes, m, ids, out[:len(ids)])
}

// adcScalar is the portable reference kernel for ADCRows.
func adcScalar(table []float32, codes []byte, m int, ids []uint32, out []float32) {
	for i, id := range ids {
		var s float32
		for j, c := range codes[int(id)*m : int(id)*m+m] {
			s += table[j*ADCStride+int(c)]
		}
		out[i] = s
	}
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

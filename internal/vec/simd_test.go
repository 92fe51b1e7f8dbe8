package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// relErr returns |a-b| / max(|a|,|b|), or the absolute difference near
// zero where a relative measure is meaningless.
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1e-6 {
		return d
	}
	return d / m
}

// dotErr measures the disagreement between two dot-product evaluations
// relative to the natural condition measure Σ|x_i·y_i|: a dot product can
// cancel to near zero, where comparing against the result itself would
// amplify benign last-ulp summation differences into huge "relative"
// errors. L2 has no cancellation (all terms positive), so plain relErr is
// right there.
func dotErr(a, b float64, x, y []float32) float64 {
	var cond float64
	for i := range x {
		cond += math.Abs(float64(x[i]) * float64(y[i]))
	}
	if cond < 1e-6 {
		cond = 1e-6
	}
	return math.Abs(a-b) / cond
}

// testDims exercises every lane-tail shape of both the 32/16-wide main
// loops and the 8/4-wide secondary loops, plus the paper-typical
// embedding dimensions.
var testDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17,
	23, 24, 25, 31, 32, 33, 47, 63, 64, 65, 96, 100, 127, 128, 129, 200,
	255, 256, 257, 768, 769}

func randomPair(rng *rand.Rand, dim int) (x, y []float32) {
	x = make([]float32, dim)
	y = make([]float32, dim)
	for i := range x {
		x[i] = rng.Float32()*20 - 10
		y[i] = rng.Float32()*20 - 10
	}
	return x, y
}

// TestKernelDifferential asserts the dispatched SIMD kernels match the
// scalar reference within 1e-4 relative error across random inputs and
// dimensions, including non-multiple-of-lane tails.
func TestKernelDifferential(t *testing.T) {
	if !SIMDAvailable() {
		t.Skipf("no SIMD kernels on this CPU (kernel=%s)", KernelName())
	}
	rng := rand.New(rand.NewSource(42))
	for _, dim := range testDims {
		for rep := 0; rep < 8; rep++ {
			x, y := randomPair(rng, dim)
			if e := relErr(float64(l2Scalar(x, y)), float64(best.l2(x, y))); e > 1e-4 {
				t.Fatalf("L2 dim=%d rep=%d: scalar %v vs %s %v (rel err %g)",
					dim, rep, l2Scalar(x, y), best.name, best.l2(x, y), e)
			}
			if e := dotErr(float64(dotScalar(x, y)), float64(best.dot(x, y)), x, y); e > 1e-4 {
				t.Fatalf("Dot dim=%d rep=%d: scalar %v vs %s %v (rel err %g)",
					dim, rep, dotScalar(x, y), best.name, best.dot(x, y), e)
			}
		}
	}
}

// TestKernelEdgeCases pins down shapes the lane logic could mishandle:
// empty vectors, all-zero inputs, and x == y aliasing.
func TestKernelEdgeCases(t *testing.T) {
	if got := L2Squared(nil, nil); got != 0 {
		t.Fatalf("L2Squared(nil, nil) = %v", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %v", got)
	}
	for _, dim := range []int{8, 13, 64} {
		z := make([]float32, dim)
		if got := L2Squared(z, z); got != 0 {
			t.Fatalf("L2Squared(zero, zero) dim=%d = %v", dim, got)
		}
		x := make([]float32, dim)
		for i := range x {
			x[i] = float32(i + 1)
		}
		if got := L2Squared(x, x); got != 0 {
			t.Fatalf("L2Squared(x, x) dim=%d = %v", dim, got)
		}
		want := dotScalar(x, x)
		if e := relErr(float64(want), float64(Dot(x, x))); e > 1e-4 {
			t.Fatalf("Dot(x, x) dim=%d: %v vs scalar %v", dim, Dot(x, x), want)
		}
	}
}

// TestSetSIMD checks the dispatch switch actually swaps implementations
// and reports availability truthfully.
func TestSetSIMD(t *testing.T) {
	defer SetSIMD(true)
	if SetSIMD(false) {
		t.Fatal("SetSIMD(false) reported SIMD active")
	}
	if KernelName() != "scalar" {
		t.Fatalf("after SetSIMD(false), kernel = %q", KernelName())
	}
	on := SetSIMD(true)
	if on != SIMDAvailable() {
		t.Fatalf("SetSIMD(true) = %v but SIMDAvailable = %v", on, SIMDAvailable())
	}
	if SIMDAvailable() && KernelName() == "scalar" {
		t.Fatal("SIMD available but scalar active after SetSIMD(true)")
	}
}

// TestDistancesBatch checks the batch entry points agree exactly with the
// one-at-a-time metric path — same kernels, so bit-identical.
func TestDistancesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim, rows = 33, 137
	m := NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = rng.Float32()*2 - 1
		}
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	ids := make([]uint32, 0, rows)
	for i := 0; i < rows; i += 3 {
		ids = append(ids, uint32(i))
	}
	for _, met := range []Metric{L2, InnerProduct, Cosine} {
		out := make([]float32, len(ids))
		DistancesBatch(met, q, m, ids, out)
		for i, id := range ids {
			if want := met.Distance(q, m.Row(int(id))); out[i] != want {
				t.Fatalf("%s DistancesBatch id=%d: %v != %v", met, id, out[i], want)
			}
		}
		full := make([]float32, rows)
		DistancesRows(met, q, m, 0, rows, full)
		for i := 0; i < rows; i++ {
			if want := met.Distance(q, m.Row(i)); full[i] != want {
				t.Fatalf("%s DistancesRows row=%d: %v != %v", met, i, full[i], want)
			}
		}
	}
}

// TestQueryDistancerCosineNorms checks the prepared cosine path — query
// norm hoisted, row norms cached — returns bit-identical distances to
// CosineDistance, including for zero vectors.
func TestQueryDistancerCosineNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim, rows = 19, 64
	m := NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		if i == 5 {
			continue // leave one zero row
		}
		r := m.Row(i)
		for j := range r {
			r[j] = rng.Float32()*2 - 1
		}
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	norms := RowNorms(m)
	d := NewQueryDistancer(Cosine, q, norms)
	for i := 0; i < rows; i++ {
		want := Cosine.Distance(q, m.Row(i))
		if got := d.RowDistance(m, uint32(i)); got != want {
			t.Fatalf("prepared cosine row %d: %v != %v", i, got, want)
		}
	}
	if d.Count != rows {
		t.Fatalf("NDC count = %d, want %d", d.Count, rows)
	}
	// Zero query: orthogonal to everything by convention.
	zq := NewQueryDistancer(Cosine, make([]float32, dim), norms)
	if got := zq.RowDistance(m, 0); got != 1 {
		t.Fatalf("zero-query cosine = %v, want 1", got)
	}
}

// TestQueryDistancerCounts checks batch scoring counts one NDC per row.
func TestQueryDistancerCounts(t *testing.T) {
	m := NewMatrix(10, 4)
	q := []float32{1, 2, 3, 4}
	d := NewQueryDistancer(L2, q, nil)
	out := make([]float32, 10)
	d.RowDistances(m, []uint32{0, 3, 7}, out[:3])
	d.RowDistancesRange(m, 2, 9, out[:7])
	d.RowDistance(m, 1)
	if d.Count != 3+7+1 {
		t.Fatalf("Count = %d, want 11", d.Count)
	}
}

// FuzzKernelEquivalence go-fuzzes the SIMD kernels against the scalar
// reference on arbitrary finite inputs.
func FuzzKernelEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 7, 8, 33} {
		x, y := randomPair(rng, dim)
		seed := make([]byte, 0, 8*dim)
		for i := range x {
			seed = append(seed,
				byte(math.Float32bits(x[i])), byte(math.Float32bits(x[i])>>8),
				byte(math.Float32bits(x[i])>>16), byte(math.Float32bits(x[i])>>24),
				byte(math.Float32bits(y[i])), byte(math.Float32bits(y[i])>>8),
				byte(math.Float32bits(y[i])>>16), byte(math.Float32bits(y[i])>>24))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		x := make([]float32, n)
		y := make([]float32, n)
		for i := 0; i < n; i++ {
			xv := math.Float32frombits(uint32(data[8*i]) | uint32(data[8*i+1])<<8 |
				uint32(data[8*i+2])<<16 | uint32(data[8*i+3])<<24)
			yv := math.Float32frombits(uint32(data[8*i+4]) | uint32(data[8*i+5])<<8 |
				uint32(data[8*i+6])<<16 | uint32(data[8*i+7])<<24)
			// Keep inputs finite and modest so the comparison is about
			// summation, not float32 overflow semantics.
			if math.IsNaN(float64(xv)) || math.IsInf(float64(xv), 0) || math.Abs(float64(xv)) > 1e6 {
				xv = float32(i % 17)
			}
			if math.IsNaN(float64(yv)) || math.IsInf(float64(yv), 0) || math.Abs(float64(yv)) > 1e6 {
				yv = float32(i % 13)
			}
			x[i], y[i] = xv, yv
		}
		if e := relErr(float64(l2Scalar(x, y)), float64(active.l2(x, y))); e > 1e-4 {
			t.Fatalf("L2 dim=%d rel err %g", n, e)
		}
		if e := dotErr(float64(dotScalar(x, y)), float64(active.dot(x, y)), x, y); e > 1e-4 {
			t.Fatalf("Dot dim=%d rel err %g", n, e)
		}
	})
}

// subspaceRef scores x against centroid c the way the per-row path did:
// gather the centroid's coordinates out of the dimension-major layout and
// run the scalar L2 kernel over them.
func subspaceRef(x, cols []float32, ks, c int) float32 {
	row := make([]float32, len(x))
	for j := range row {
		row[j] = cols[j*ks+c]
	}
	return l2Scalar(x, row)
}

// checkSubspaceKernels asserts both arms of the sub-space kernel agree
// with the per-centroid scalar reference on every centroid, that neither
// writes past out[ks-1], and that the SIMD ArgMin picks exactly the
// centroid the scalar one does from each arm's scores.
func checkSubspaceKernels(t *testing.T, x, cols []float32, ks int) {
	t.Helper()
	const guard = float32(-12345)
	for _, arm := range []kernelSet{scalarKernels, best} {
		out := make([]float32, ks+1)
		out[ks] = guard
		arm.subL2(x, cols, out[:ks])
		if out[ks] != guard {
			t.Fatalf("%s sub=%d ks=%d: wrote past out[ks-1]", arm.name, len(x), ks)
		}
		for c := 0; c < ks; c++ {
			want := subspaceRef(x, cols, ks, c)
			if e := relErr(float64(want), float64(out[c])); e > 1e-4 {
				t.Fatalf("%s sub=%d ks=%d centroid %d: %v vs reference %v (rel err %g)",
					arm.name, len(x), ks, c, out[c], want, e)
			}
		}
		if got, want := best.argmin(out[:ks]), argminScalar(out[:ks]); got != want {
			t.Fatalf("%s argmin over %s scores, ks=%d: %d, scalar says %d", best.name, arm.name, ks, got, want)
		}
	}
}

// TestArgMinExact pins ArgMin's contract on the shapes the lane logic
// could mishandle: the first of several equal minima wins, wherever the
// minimum sits relative to the 32-wide, 8-wide and scalar-tail regions,
// on unaligned slices, and both arms agree exactly.
func TestArgMinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 31, 32, 33, 40, 63, 64, 65, 255, 256, 257} {
		for off := 0; off < 8; off++ {
			buf := make([]float32, off+n)
			d := buf[off:]
			for rep := 0; rep < 20; rep++ {
				for i := range d {
					d[i] = float32(rng.Intn(50)) // few distinct values: ties everywhere
				}
				if rep%4 == 0 {
					d[rng.Intn(n)] = -1 // a unique minimum at a random place
				}
				if rep%5 == 0 {
					d[rng.Intn(n)] = float32(math.Copysign(0, -1))
				}
				want := argminScalar(d)
				for i := 0; i < want; i++ {
					if d[i] <= d[want] {
						t.Fatalf("argminScalar(%v) = %d is not the first minimum", d, want)
					}
				}
				if got := best.argmin(d); got != want {
					t.Fatalf("%s argmin n=%d off=%d: %d, want %d (%v)", best.name, n, off, got, want, d)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected ArgMin(nil) to panic")
		}
	}()
	ArgMin(nil)
}

// TestSubspaceKernelDifferential covers every lane-group shape of the
// sub-space kernel (32-wide main loop, 8-wide loop, scalar tail columns)
// at the sub-vector lengths product quantization produces, on slices that
// start at every 4-byte offset within a 32-byte line.
func TestSubspaceKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sub := range []int{1, 2, 3, 4, 8, 12, 16, 32} {
		for _, ks := range []int{1, 7, 8, 9, 64, 255, 256} {
			for off := 0; off < 8; off++ {
				xb := make([]float32, off+sub)
				cb := make([]float32, off+sub*ks)
				for i := range xb {
					xb[i] = rng.Float32()*20 - 10
				}
				for i := range cb {
					cb[i] = rng.Float32()*20 - 10
				}
				checkSubspaceKernels(t, xb[off:], cb[off:], ks)
			}
		}
	}
}

// TestSubspaceL2Dispatch checks the public entry point routes through the
// active arm, tolerates an oversized out, and rejects mismatched shapes.
func TestSubspaceL2Dispatch(t *testing.T) {
	x := []float32{1, 2}
	cols := []float32{1, 0, 3 /* coordinate 0 */, 2, 0, 5 /* coordinate 1 */}
	out := []float32{-1, -1, -1, -1}
	SubspaceL2(x, cols, 3, out)
	if out[0] != 0 || out[1] != 5 || out[2] != 13 || out[3] != -1 {
		t.Fatalf("SubspaceL2 = %v, want [0 5 13 -1]", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cols/ks mismatch")
		}
	}()
	SubspaceL2(x, cols[:5], 3, out)
}

// FuzzSubspaceKernelEquivalence go-fuzzes the sub-space kernel's arms
// against the per-centroid scalar reference on arbitrary finite inputs and
// shapes.
func FuzzSubspaceKernelEquivalence(f *testing.F) {
	f.Add(uint8(8), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), uint8(40), []byte("sub-space kernel seed"))
	f.Add(uint8(16), uint8(9), []byte{0xff, 0x7f, 0x80, 0x00, 0x3f})
	f.Fuzz(func(t *testing.T, subByte, ksByte uint8, data []byte) {
		sub := int(subByte)%32 + 1
		ks := int(ksByte) + 1
		// Floats come from data's bytes, cycled; non-finite or huge values
		// are replaced so the comparison is about summation, not float32
		// overflow semantics.
		at := 0
		next := func() float32 {
			var b [4]byte
			for i := range b {
				if len(data) > 0 {
					b[i] = data[at%len(data)]
					at++
				}
			}
			v := math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e6 {
				v = float32(at % 17)
			}
			return v
		}
		x := make([]float32, sub)
		for i := range x {
			x[i] = next()
		}
		cols := make([]float32, sub*ks)
		for i := range cols {
			cols[i] = next()
		}
		checkSubspaceKernels(t, x, cols, ks)
	})
}

var sinkInt int

func BenchmarkSubspaceL2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{8, 256}, {16, 64}} {
		sub, ks := shape[0], shape[1]
		x := make([]float32, sub)
		cols := make([]float32, sub*ks)
		for i := range x {
			x[i] = rng.Float32()
		}
		for i := range cols {
			cols[i] = rng.Float32()
		}
		out := make([]float32, ks)
		for _, arm := range []kernelSet{scalarKernels, best} {
			b.Run(fmt.Sprintf("sub%d_ks%d_%s", sub, ks, arm.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					arm.subL2(x, cols, out)
				}
			})
			b.Run(fmt.Sprintf("argmin_ks%d_%s", ks, arm.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkInt += arm.argmin(out)
				}
			})
		}
	}
}

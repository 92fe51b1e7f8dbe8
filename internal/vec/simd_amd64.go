package vec

// Assembly kernels (vec_amd64.s). Each consumes a prefix of the slices
// whose length is a multiple of 8 lanes; the Go wrappers below finish the
// tail scalarly, so any dimension — including non-multiple-of-lane tails —
// goes through the same code path.
//
//go:noescape
func l2Body8AVX2(x, y []float32) float32

//go:noescape
func dotBody8AVX2(x, y []float32) float32

// subL2Body8AVX2 is SubspaceL2's body for the first len(out) centroids,
// a non-zero multiple of 8; cols points at coordinate 0 of centroid 0 and
// consecutive coordinates are ks floats apart. len(x) must be non-zero.
//
//go:noescape
func subL2Body8AVX2(x []float32, cols *float32, ks int, out []float32)

// argminBody8AVX2 returns the index of the first smallest entry of d, whose
// length is a non-zero multiple of 8 (0 if d holds a NaN).
//
//go:noescape
func argminBody8AVX2(d []float32) int

// CPUID plumbing (cpu_amd64.s) for runtime feature detection.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detectKernels picks AVX2+FMA kernels when the CPU and OS support them
// (AVX2 + FMA + OSXSAVE with YMM state enabled), else the scalar
// reference.
func detectKernels() kernelSet {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return scalarKernels
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return scalarKernels
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM): the OS must save the wide
	// register state across context switches.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return scalarKernels
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return scalarKernels
	}
	return kernelSet{
		name: "avx2", l2: l2AVX2, dot: dotAVX2, subL2: subL2AVX2, argmin: argminAVX2,
		l2Rows: l2RowsAVX2, dotRows: dotRowsAVX2, adc: adcAMD64,
	}
}

// adcBody4 is ADCRows over len(ids), a non-zero multiple of 4, for
// checked arguments (vec_amd64.s).
//
//go:noescape
func adcBody4(table *float32, codes *byte, m int, ids []uint32, out []float32)

// adcAMD64 runs the assembly kernel over groups of four ids; the last,
// partial group repeats its final id and keeps the scores it needs.
func adcAMD64(table []float32, codes []byte, m int, ids []uint32, out []float32) {
	n := len(ids) &^ 3
	if n > 0 {
		adcBody4(&table[0], &codes[0], m, ids[:n], out[:n])
	}
	if r := len(ids) - n; r > 0 {
		var pad [4]uint32
		var res [4]float32
		for k := range pad {
			pad[k] = ids[n+min(k, r-1)]
		}
		adcBody4(&table[0], &codes[0], m, pad[:], res[:])
		copy(out[n:], res[:r])
	}
}

func l2AVX2(x, y []float32) float32 {
	n := len(x) &^ 7
	var s float32
	if n > 0 {
		s = l2Body8AVX2(x[:n], y[:n])
	}
	return l2Tail(s, x[n:], y[n:])
}

func dotAVX2(x, y []float32) float32 {
	n := len(x) &^ 7
	var s float32
	if n > 0 {
		s = dotBody8AVX2(x[:n], y[:n])
	}
	return dotTail(s, x[n:], y[n:])
}

// l2Tail and dotTail finish a body's sum s over the sub-lane tail. The
// single-row kernels and the gathers share them, which is what makes a
// gathered distance the same bits as a single-row one.
func l2Tail(s float32, x, y []float32) float32 {
	y = y[:len(x)]
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return s
}

func dotTail(s float32, x, y []float32) float32 {
	y = y[:len(x)]
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// gatherL2Body8AVX2 and gatherDotBody8AVX2 run l2Body8AVX2/dotBody8AVX2
// over q (a non-zero multiple of 8 floats) and the first len(q) floats of
// each listed row, rows being stride floats apart from base, writing each
// row's body sum to out[i]. Each row's lines are prefetched a few rows
// ahead, so a hop's random rows arrive while earlier ones are reduced.
//
//go:noescape
func gatherL2Body8AVX2(q []float32, base *float32, stride int, ids []uint32, out []float32)

//go:noescape
func gatherDotBody8AVX2(q []float32, base *float32, stride int, ids []uint32, out []float32)

func l2RowsAVX2(q []float32, m *Matrix, ids []uint32, out []float32) {
	n := m.dim &^ 7
	if n == 0 || len(ids) == 0 || !rowsInRange(m, ids) {
		gatherRows(l2AVX2, q, m, ids, out)
		return
	}
	gatherL2Body8AVX2(q[:n], &m.data[0], m.dim, ids, out[:len(ids)])
	if n < m.dim {
		for i, id := range ids {
			out[i] = l2Tail(out[i], q[n:], m.Row(int(id))[n:])
		}
	}
}

func dotRowsAVX2(q []float32, m *Matrix, ids []uint32, out []float32) {
	n := m.dim &^ 7
	if n == 0 || len(ids) == 0 || !rowsInRange(m, ids) {
		gatherRows(dotAVX2, q, m, ids, out)
		return
	}
	gatherDotBody8AVX2(q[:n], &m.data[0], m.dim, ids, out[:len(ids)])
	if n < m.dim {
		for i, id := range ids {
			out[i] = dotTail(out[i], q[n:], m.Row(int(id))[n:])
		}
	}
}

// rowsInRange reports whether every id names a row of m. The assembly
// gathers do no bounds checking, so an out-of-range id takes the Go path,
// which panics on it like a single-row call would.
func rowsInRange(m *Matrix, ids []uint32) bool {
	rows := uint32(m.Rows())
	for _, id := range ids {
		if id >= rows {
			return false
		}
	}
	return true
}

func subL2AVX2(x, cols, out []float32) {
	ks := len(out)
	n := ks &^ 7
	if len(x) == 0 {
		n = 0
	}
	if n > 0 {
		subL2Body8AVX2(x, &cols[0], ks, out[:n])
	}
	for c := n; c < ks; c++ {
		var s float32
		for j, xj := range x {
			d := xj - cols[j*ks+c]
			s += d * d
		}
		out[c] = s
	}
}

func argminAVX2(d []float32) int {
	n := len(d) &^ 7
	best := 0
	if n > 0 {
		best = argminBody8AVX2(d[:n])
	}
	for c := n; c < len(d); c++ {
		if d[c] < d[best] {
			best = c
		}
	}
	return best
}

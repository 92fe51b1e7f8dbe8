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
	return kernelSet{name: "avx2", l2: l2AVX2, dot: dotAVX2, subL2: subL2AVX2, argmin: argminAVX2}
}

func l2AVX2(x, y []float32) float32 {
	n := len(x) &^ 7
	var s float32
	if n > 0 {
		s = l2Body8AVX2(x[:n], y[:n])
	}
	for i := n; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func dotAVX2(x, y []float32) float32 {
	n := len(x) &^ 7
	var s float32
	if n > 0 {
		s = dotBody8AVX2(x[:n], y[:n])
	}
	for i := n; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
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

package vec

// Assembly kernels (vec_arm64.s). Each consumes a prefix of the slices
// whose length is a multiple of 4 lanes and writes its four partial lane
// sums into acc (summed here in a fixed order so results are
// deterministic); the Go wrappers finish the sub-lane tail scalarly.
//
//go:noescape
func l2Body4NEON(x, y []float32, acc *[4]float32)

//go:noescape
func dotBody4NEON(x, y []float32, acc *[4]float32)

// detectKernels selects the NEON kernels. The Advanced SIMD extension is
// mandatory on AArch64, so there is nothing to probe. The sub-space kernel
// and ArgMin stay on the portable loops: no NEON body ships without
// hardware to test it on.
func detectKernels() kernelSet {
	return kernelSet{name: "neon", l2: l2NEON, dot: dotNEON, subL2: subL2Scalar, argmin: argminScalar}
}

func l2NEON(x, y []float32) float32 {
	n := len(x) &^ 3
	var s float32
	if n > 0 {
		var acc [4]float32
		l2Body4NEON(x[:n], y[:n], &acc)
		s = (acc[0] + acc[1]) + (acc[2] + acc[3])
	}
	for i := n; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func dotNEON(x, y []float32) float32 {
	n := len(x) &^ 3
	var s float32
	if n > 0 {
		var acc [4]float32
		dotBody4NEON(x[:n], y[:n], &acc)
		s = (acc[0] + acc[1]) + (acc[2] + acc[3])
	}
	for i := n; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

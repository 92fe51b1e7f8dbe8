package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestL2SquaredBasic(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 6, 8}
	// (3^2 + 4^2 + 5^2) = 50
	if got := L2Squared(x, y); got != 50 {
		t.Fatalf("L2Squared = %v, want 50", got)
	}
	if got := L2Squared(x, x); got != 0 {
		t.Fatalf("L2Squared(x,x) = %v, want 0", got)
	}
}

func TestL2SquaredOddLengths(t *testing.T) {
	// Exercise the unrolled loop remainder for every length 1..9.
	for n := 1; n <= 9; n++ {
		x := make([]float32, n)
		y := make([]float32, n)
		var want float64
		for i := range x {
			x[i] = float32(i + 1)
			y[i] = float32(2*i - 3)
			d := float64(x[i] - y[i])
			want += d * d
		}
		if got := L2Squared(x, y); !almostEq(float64(got), want, 1e-4) {
			t.Fatalf("n=%d: L2Squared = %v, want %v", n, got, want)
		}
	}
}

func TestDotBasic(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	L2Squared([]float32{1}, []float32{1, 2})
}

func TestCosineDistance(t *testing.T) {
	x := []float32{1, 0}
	y := []float32{0, 1}
	if got := CosineDistance(x, y); !almostEq(float64(got), 1, 1e-6) {
		t.Fatalf("orthogonal cosine distance = %v, want 1", got)
	}
	if got := CosineDistance(x, x); !almostEq(float64(got), 0, 1e-6) {
		t.Fatalf("self cosine distance = %v, want 0", got)
	}
	neg := []float32{-1, 0}
	if got := CosineDistance(x, neg); !almostEq(float64(got), 2, 1e-6) {
		t.Fatalf("opposite cosine distance = %v, want 2", got)
	}
	zero := []float32{0, 0}
	if got := CosineDistance(x, zero); got != 1 {
		t.Fatalf("zero-vector cosine distance = %v, want 1", got)
	}
}

func TestMetricDistanceDispatch(t *testing.T) {
	x := []float32{1, 2}
	y := []float32{3, 5}
	if got, want := L2.Distance(x, y), float32(13); got != want {
		t.Errorf("L2 dispatch = %v, want %v", got, want)
	}
	if got, want := InnerProduct.Distance(x, y), float32(-13); got != want {
		t.Errorf("IP dispatch = %v, want %v", got, want)
	}
	if got := Cosine.Distance(x, x); !almostEq(float64(got), 0, 1e-6) {
		t.Errorf("Cosine dispatch self = %v, want 0", got)
	}
}

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{L2: "L2", InnerProduct: "InnerProduct", Cosine: "Cosine", Metric(9): "Metric(9)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Metric(%d).String() = %q, want %q", m, got, want)
		}
	}
	if !L2.Valid() || Metric(9).Valid() {
		t.Error("Valid() misclassified a metric")
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{3, 4}
	Normalize(x)
	if !almostEq(float64(Norm(x)), 1, 1e-6) {
		t.Fatalf("norm after Normalize = %v, want 1", Norm(x))
	}
	zero := []float32{0, 0}
	Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("Normalize changed the zero vector")
	}
}

func TestAddScale(t *testing.T) {
	dst := []float32{1, 2, 3}
	Add(dst, []float32{1, 1, 1})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 4 {
		t.Fatalf("Add result = %v", dst)
	}
	Scale(dst, 2)
	if dst[0] != 4 || dst[1] != 6 || dst[2] != 8 {
		t.Fatalf("Scale result = %v", dst)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Row(0), []float32{1, 2})
	copy(m.Row(1), []float32{3, 4})
	copy(m.Row(2), []float32{5, 6})
	if m.Rows() != 3 || m.Dim() != 2 {
		t.Fatalf("shape = (%d,%d), want (3,2)", m.Rows(), m.Dim())
	}
	if m.Row(1)[1] != 4 {
		t.Fatalf("Row(1)[1] = %v, want 4", m.Row(1)[1])
	}
	c := m.Centroid()
	if c[0] != 3 || c[1] != 4 {
		t.Fatalf("Centroid = %v, want [3 4]", c)
	}
	idx, d := m.NearestRow([]float32{3.1, 4.1}, L2)
	if idx != 1 {
		t.Fatalf("NearestRow idx = %d (dist %v), want 1", idx, d)
	}
}

func TestMatrixAppendClone(t *testing.T) {
	var m Matrix
	if m.Rows() != 0 {
		t.Fatal("zero-value matrix should have 0 rows")
	}
	i := m.Append([]float32{1, 2, 3})
	if i != 0 || m.Rows() != 1 || m.Dim() != 3 {
		t.Fatalf("after first Append: i=%d rows=%d dim=%d", i, m.Rows(), m.Dim())
	}
	m.Append([]float32{4, 5, 6})
	c := m.Clone()
	c.Row(0)[0] = 99
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	s := m.Slice(1, 2)
	if s.Rows() != 1 || s.Row(0)[2] != 6 {
		t.Fatalf("Slice row = %v", s.Row(0))
	}
}

func TestMatrixFromRowsAndWrap(t *testing.T) {
	m := MatrixFromRows([][]float32{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Row(1)[0] != 3 {
		t.Fatal("MatrixFromRows mismatch")
	}
	w := WrapMatrix([]float32{1, 2, 3, 4, 5, 6}, 3)
	if w.Rows() != 2 || w.Row(1)[2] != 6 {
		t.Fatal("WrapMatrix mismatch")
	}
}

func TestNearestRowEmpty(t *testing.T) {
	var m Matrix
	m.dim = 2
	idx, _ := m.NearestRow([]float32{0, 0}, L2)
	if idx != -1 {
		t.Fatalf("NearestRow on empty matrix = %d, want -1", idx)
	}
}

func TestNormalizeRows(t *testing.T) {
	m := MatrixFromRows([][]float32{{3, 4}, {0, 5}})
	m.NormalizeRows()
	for i := 0; i < m.Rows(); i++ {
		if !almostEq(float64(Norm(m.Row(i))), 1, 1e-6) {
			t.Fatalf("row %d norm = %v", i, Norm(m.Row(i)))
		}
	}
}

func TestDistanceCounter(t *testing.T) {
	c := DistanceCounter{Metric: L2}
	x := []float32{0, 0}
	y := []float32{1, 1}
	for i := 0; i < 5; i++ {
		if got := c.Distance(x, y); got != 2 {
			t.Fatalf("counted distance = %v, want 2", got)
		}
	}
	if c.Count != 5 {
		t.Fatalf("Count = %d, want 5", c.Count)
	}
	if n := c.Reset(); n != 5 || c.Count != 0 {
		t.Fatalf("Reset returned %d, Count now %d", n, c.Count)
	}
}

// Property: L2Squared is symmetric, non-negative, and zero iff x == y
// (up to float equality on random inputs).
func TestL2SquaredProperties(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x, y := a[:n], b[:n]
		dxy := L2Squared(x, y)
		dyx := L2Squared(y, x)
		return dxy == dyx && dxy >= 0 && L2Squared(x, x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear in scaling.
func TestDotProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(33)
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
			y[i] = rng.Float32()*2 - 1
		}
		if Dot(x, y) != Dot(y, x) {
			t.Fatal("Dot not symmetric")
		}
		x2 := make([]float32, n)
		for i := range x {
			x2[i] = 2 * x[i]
		}
		if !almostEq(float64(Dot(x2, y)), 2*float64(Dot(x, y)), 1e-3) {
			t.Fatalf("Dot not linear: %v vs %v", Dot(x2, y), 2*Dot(x, y))
		}
	}
}

// Property: for unit vectors, L2Squared = 2 * CosineDistance.
func TestUnitVectorIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
		}
		Normalize(x)
		Normalize(y)
		l2 := float64(L2Squared(x, y))
		cd := float64(CosineDistance(x, y))
		if !almostEq(l2, 2*cd, 1e-3) {
			t.Fatalf("identity violated: l2=%v 2cd=%v", l2, 2*cd)
		}
	}
}

func BenchmarkL2Squared64(b *testing.B) { benchDistance(b, L2, 64) }
func BenchmarkDot64(b *testing.B)       { benchDistance(b, InnerProduct, 64) }
func BenchmarkCosine64(b *testing.B)    { benchDistance(b, Cosine, 64) }

func benchDistance(b *testing.B, m Metric, dim int) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float32, dim)
	y := make([]float32, dim)
	for i := range x {
		x[i] = rng.Float32()
		y[i] = rng.Float32()
	}
	b.ReportAllocs()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += m.Distance(x, y)
	}
	_ = sink
}

// Package vec provides the low-level float32 vector math used by every
// index in this repository: distance kernels (squared Euclidean, inner
// product, cosine), norms, and a flat row-major Matrix type that stores a
// dataset contiguously so distance loops stay cache-friendly.
//
// The public kernels (L2Squared, Dot, and the batch entry points) dispatch
// once, at package init, to the fastest implementation the CPU supports:
// hand-written AVX2+FMA assembly on amd64, NEON on arm64, and a portable
// four-wide unrolled scalar reference everywhere else (also selectable at
// runtime — see SetSIMD and the NGFIX_DISABLE_SIMD environment variable).
// Distances follow the "smaller is closer" convention everywhere: inner
// product and cosine similarity are returned negated / as (1 - cos) so the
// same comparison logic drives all metric spaces.
package vec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Metric selects the distance function used by a dataset or index.
type Metric uint8

const (
	// L2 is squared Euclidean distance. Square roots are never needed for
	// nearest-neighbor ordering, so they are never taken.
	L2 Metric = iota
	// InnerProduct is negated dot product: d(x,y) = -<x,y>. Maximum inner
	// product search then becomes a minimum-distance search.
	InnerProduct
	// Cosine is cosine distance: d(x,y) = 1 - <x,y>/(|x||y|). Datasets that
	// declare Cosine are expected to hold pre-normalized rows, in which case
	// it coincides with 1 - <x,y>.
	Cosine
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case InnerProduct:
		return "InnerProduct"
	case Cosine:
		return "Cosine"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// Valid reports whether m is one of the defined metrics.
func (m Metric) Valid() bool { return m <= Cosine }

// Distance returns the distance between x and y under metric m.
// x and y must have equal length.
func (m Metric) Distance(x, y []float32) float32 {
	switch m {
	case L2:
		return L2Squared(x, y)
	case InnerProduct:
		return -Dot(x, y)
	case Cosine:
		return CosineDistance(x, y)
	default:
		panic("vec: invalid metric")
	}
}

// L2Squared returns the squared Euclidean distance between x and y.
func L2Squared(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("vec: dimension mismatch")
	}
	return active.l2(x, y)
}

// Dot returns the inner product of x and y.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("vec: dimension mismatch")
	}
	return active.dot(x, y)
}

// l2Scalar is the portable reference kernel for L2Squared: manually
// unrolled four wide, bounds-check-free in the hot loop. The SIMD kernels
// are differentially tested against it.
func l2Scalar(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// dotScalar is the portable reference kernel for Dot.
func dotScalar(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// subL2Scalar is the portable reference kernel for SubspaceL2 (ks =
// len(out)): streaming passes over the contiguous per-coordinate columns,
// two coordinates per pass so out is read and written half as often. It
// is also what arm64 runs.
func subL2Scalar(x, cols, out []float32) {
	for c := range out {
		out[c] = 0
	}
	ks := len(out)
	j := 0
	for ; j+2 <= len(x); j += 2 {
		x0, x1 := x[j], x[j+1]
		col0 := cols[j*ks : (j+1)*ks]
		// Equal lengths let the compiler drop the bounds checks below.
		col1 := cols[(j+1)*ks : (j+2)*ks][:len(col0)]
		acc := out[:len(col0)]
		for c, v := range col0 {
			d0 := x0 - v
			d1 := x1 - col1[c]
			acc[c] += d0*d0 + d1*d1
		}
	}
	if j < len(x) {
		xj := x[j]
		col := cols[j*ks : (j+1)*ks]
		acc := out[:len(col)]
		for c, v := range col {
			d := xj - v
			acc[c] += d * d
		}
	}
}

// argminScalar is the portable reference kernel for ArgMin.
func argminScalar(d []float32) int {
	best, bestD := 0, d[0]
	for c, v := range d {
		if v < bestD {
			best, bestD = c, v
		}
	}
	return best
}

// CosineDistance returns 1 - cos(x, y). It is safe on zero vectors, for
// which it returns 1 (treating them as orthogonal to everything).
func CosineDistance(x, y []float32) float32 {
	dot := Dot(x, y)
	nx := Norm(x)
	ny := Norm(y)
	if nx == 0 || ny == 0 {
		return 1
	}
	return 1 - dot/(nx*ny)
}

// Norm returns the Euclidean norm of x.
func Norm(x []float32) float32 {
	return float32(math.Sqrt(float64(Dot(x, x))))
}

// MaxSquaredNorm bounds the squared norm of every vector indexed or
// searched: two such vectors are at squared L2 distance at most
// 4·MaxSquaredNorm = MaxFloat32/2, and their dot product is at most
// MaxSquaredNorm, so no distance between them overflows float32.
const MaxSquaredNorm = math.MaxFloat32 / 8

// CheckNorm returns an error unless x's squared norm, summed in float64,
// is at most MaxSquaredNorm. A NaN or infinite component fails too.
func CheckNorm(x []float32) error {
	var n float64
	for _, v := range x {
		n += float64(v) * float64(v)
	}
	if !(n <= MaxSquaredNorm) {
		return fmt.Errorf("squared norm %g is not a finite number at most %g, so its distances would overflow", n, float64(MaxSquaredNorm))
	}
	return nil
}

// CheckRows is CheckNorm on every row of m, naming the first row that
// fails.
func CheckRows(m *Matrix) error {
	for i := range m.Rows() {
		if err := CheckNorm(m.Row(i)); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// Normalize scales x to unit norm in place and returns it. Zero vectors are
// left unchanged.
func Normalize(x []float32) []float32 {
	n := Norm(x)
	if n == 0 {
		return x
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return x
}

// Add accumulates src into dst element-wise. Lengths must match.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vec: dimension mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of x by s in place.
func Scale(x []float32, s float32) {
	for i := range x {
		x[i] *= s
	}
}

// Matrix stores n vectors of dimension dim contiguously in row-major order.
// The zero value is an empty matrix; use NewMatrix or Append to populate it.
type Matrix struct {
	data []float32
	dim  int
}

// NewMatrix allocates a matrix with n rows of dimension dim, zero-filled.
func NewMatrix(n, dim int) *Matrix {
	if n < 0 || dim <= 0 {
		panic("vec: invalid matrix shape")
	}
	return &Matrix{data: make([]float32, n*dim), dim: dim}
}

// MatrixFromRows copies the given rows into a new matrix. All rows must
// share one dimension, and at least one row is required.
func MatrixFromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		panic("vec: MatrixFromRows needs at least one row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.dim {
			panic("vec: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// WrapMatrix adopts data as an n-row matrix without copying.
// len(data) must be a multiple of dim.
func WrapMatrix(data []float32, dim int) *Matrix {
	if dim <= 0 || len(data)%dim != 0 {
		panic("vec: WrapMatrix shape mismatch")
	}
	return &Matrix{data: data, dim: dim}
}

const (
	// readChunk is how many floats ReadRows decodes per read.
	readChunk = 1 << 16
	// maxPrealloc bounds the floats ReadRows allocates before any payload
	// has arrived (16 MiB): a corpus up to that size is allocated once, at
	// its exact size.
	maxPrealloc = 1 << 22
)

// ReadRows reads rows*dim little-endian float32s from r into a new
// matrix. It reads in bounded chunks, and past maxPrealloc the matrix
// grows only as payload arrives, so a header that claims more rows than r
// holds cannot make it allocate the claimed size.
func ReadRows(r io.Reader, rows, dim int) (*Matrix, error) {
	total := rows * dim
	data := make([]float32, 0, min(total, maxPrealloc))
	buf := make([]byte, 4*min(total, readChunk))
	for len(data) < total {
		b := buf[:4*min(total-len(data), readChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 4 {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		}
	}
	return WrapMatrix(data, dim), nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int {
	if m.dim == 0 {
		return 0
	}
	return len(m.data) / m.dim
}

// Dim returns the vector dimensionality.
func (m *Matrix) Dim() int { return m.dim }

// Row returns the i-th vector as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.data[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
}

// Data returns the backing slice (rows concatenated in order).
func (m *Matrix) Data() []float32 { return m.data }

// Append adds a copy of row to the end of the matrix and returns its index.
func (m *Matrix) Append(row []float32) int {
	if m.dim == 0 {
		m.dim = len(row)
	}
	if len(row) != m.dim {
		panic("vec: dimension mismatch on Append")
	}
	m.data = append(m.data, row...)
	return m.Rows() - 1
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{data: make([]float32, len(m.data)), dim: m.dim}
	copy(c.data, m.data)
	return c
}

// Slice returns a new matrix sharing storage with rows [lo, hi).
func (m *Matrix) Slice(lo, hi int) *Matrix {
	return &Matrix{data: m.data[lo*m.dim : hi*m.dim], dim: m.dim}
}

// NormalizeRows scales every row to unit norm in place.
func (m *Matrix) NormalizeRows() {
	for i := 0; i < m.Rows(); i++ {
		Normalize(m.Row(i))
	}
}

// Centroid returns the arithmetic mean of all rows. It panics on an empty
// matrix.
func (m *Matrix) Centroid() []float32 {
	n := m.Rows()
	if n == 0 {
		panic("vec: centroid of empty matrix")
	}
	c := make([]float64, m.dim)
	for i := 0; i < n; i++ {
		r := m.Row(i)
		for j, v := range r {
			c[j] += float64(v)
		}
	}
	out := make([]float32, m.dim)
	inv := 1 / float64(n)
	for j, v := range c {
		out[j] = float32(v * inv)
	}
	return out
}

// NearestRow does a brute-force scan and returns the index of the row
// closest to q under metric met, along with its distance. The scan runs
// in chunks through the batched kernel: contiguous rows, one linear
// streaming pass per chunk.
func (m *Matrix) NearestRow(q []float32, met Metric) (idx int, dist float32) {
	n := m.Rows()
	if n == 0 {
		return -1, float32(math.Inf(1))
	}
	const chunk = 256
	var buf [chunk]float32
	d := NewQueryDistancer(met, q, nil)
	idx = -1
	dist = float32(math.Inf(1))
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		dists := buf[:hi-lo]
		d.RowDistancesRange(m, lo, hi, dists)
		for i, dd := range dists {
			if dd < dist {
				idx, dist = lo+i, dd
			}
		}
	}
	if idx < 0 { // all distances NaN/Inf: keep the seed behavior of row 0
		idx, dist = 0, met.Distance(q, m.Row(0))
	}
	return idx, dist
}

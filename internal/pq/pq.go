// Package pq implements Product Quantization (Jégou et al., TPAMI 2011),
// the compression family the reproduced paper's related-work section
// covers, and its standard combination with graph search: navigate the
// graph scoring candidates with cheap asymmetric-distance (ADC) table
// lookups, then re-rank the best candidates with exact distances. The
// combination ("graph-based methods can be combined with other methods to
// achieve better overall performance") trades a small recall loss for a
// large reduction in full-precision distance work.
package pq

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ngfix/internal/vec"
)

// Config holds PQ training parameters.
type Config struct {
	// M is the number of subspaces (must divide the dimension).
	M int
	// KS is the number of centroids per subspace (≤ 256; codes are bytes).
	KS int
	// Iters is the number of k-means iterations per subspace.
	Iters int
	// Seed drives centroid initialization.
	Seed int64
}

// DefaultConfig picks a standard setting for the given dimension: the
// largest M ≤ 8 that divides dim, with 64 centroids per subspace. It
// refuses dimensions where only M=1 would fit (prime dims, say): a single
// subspace degenerates PQ to plain vector quantization with KS
// representable points total, which silently destroys recall. Callers
// that genuinely want that arm opt in via DefaultOrScalarConfig or an
// explicit Config{M: 1}.
func DefaultConfig(dim int) (Config, error) {
	m := 8
	for dim%m != 0 && m > 1 {
		m--
	}
	if m == 1 {
		return Config{}, fmt.Errorf("pq: no subspace count in 2..8 divides dim=%d; set Config.M explicitly (M=1 degenerates to scalar vector quantization)", dim)
	}
	return Config{M: m, KS: 64, Iters: 8, Seed: 23}, nil
}

// DefaultOrScalarConfig is DefaultConfig with the documented explicit
// fallback: dimensions no M in 2..8 divides get M=1 — plain vector
// quantization, still a valid (if coarse) arm for diagnostics and
// benchmarks that must run on any dimension.
func DefaultOrScalarConfig(dim int) Config {
	cfg, err := DefaultConfig(dim)
	if err != nil {
		return Config{M: 1, KS: 64, Iters: 8, Seed: 23}
	}
	return cfg
}

// Quantizer is a trained product quantizer plus the codes of a dataset.
type Quantizer struct {
	cfg Config
	dim int
	sub int // dim / M
	// centroids[m] is a KS×sub matrix of subspace centroids: the source of
	// truth, what Decode reads and the sidecar codec persists.
	centroids []*vec.Matrix
	// cols is the derived scan copy of centroids, dimension-major per
	// subspace — coordinate j of subspace m's centroid c is at
	// cols[(m*sub+j)*KS+c] — the layout vec.SubspaceL2 scores KS centroids
	// from in one call. Built once by deriveCols, immutable afterwards.
	cols []float32
	// codes holds M bytes per encoded row.
	codes []byte
	rows  int

	// encScratch is AppendRow's centroid-distance buffer, reused across
	// incremental encodes (single writer; see AppendRow).
	encScratch []float32
}

// Train fits the codebooks on the dataset and encodes every row. Subspaces
// train concurrently (up to GOMAXPROCS at a time), each from its own
// random stream, and the encode pass splits the rows into disjoint chunks,
// so codebooks and codes depend only on the data and cfg, never on the
// core count.
func Train(data *vec.Matrix, cfg Config) (*Quantizer, error) {
	dim := data.Dim()
	if cfg.M <= 0 || dim%cfg.M != 0 {
		return nil, fmt.Errorf("pq: M=%d must divide dim=%d", cfg.M, dim)
	}
	if cfg.KS <= 0 || cfg.KS > 256 {
		return nil, fmt.Errorf("pq: KS=%d out of range (1..256)", cfg.KS)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 8
	}
	n := data.Rows()
	ks := cfg.KS
	if ks > n {
		ks = n
	}
	q := &Quantizer{cfg: cfg, dim: dim, sub: dim / cfg.M, rows: n}
	q.cfg.KS = ks

	q.centroids = make([]*vec.Matrix, cfg.M)
	parallel(cfg.M, 1, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			// One stream per subspace, a function of (Seed, m) alone.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(m)*subspaceSeedStride))
			q.centroids[m] = trainSubspace(data, m, q.sub, ks, cfg.Iters, rng)
		}
	})
	q.deriveCols()
	q.codes = make([]byte, n*cfg.M)
	q.encodeRows(data, 0, n, q.codes)
	return q, nil
}

// subspaceSeedStride separates the subspaces' seeds so that configs whose
// Seeds differ by less than M do not share a stream between subspaces.
const subspaceSeedStride = 1_000_003

// parallel covers [0, n) with fn(lo, hi) calls over disjoint chunks of
// chunk items (the last may be shorter), handed out on demand to up to
// GOMAXPROCS goroutines — so a chunk that finishes early (a subspace that
// converges) does not idle its worker — and returns when all are done.
// Which goroutine runs which chunk is unspecified; callers keep chunks
// independent so the result is not.
func parallel(n, chunk int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if chunks := (n + chunk - 1) / chunk; workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				fn(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}

// transposeInto writes the KS×sub centroid matrix into dst dimension-major
// (dst[j*KS+c] = coordinate j of centroid c).
func transposeInto(dst []float32, cents *vec.Matrix) {
	ks := cents.Rows()
	for c := 0; c < ks; c++ {
		for j, v := range cents.Row(c) {
			dst[j*ks+c] = v
		}
	}
}

// deriveCols builds the dimension-major scan copy from the row-major
// centroids. Every constructor calls it once, after the centroids are
// final.
func (q *Quantizer) deriveCols() {
	per := q.sub * q.cfg.KS
	q.cols = make([]float32, q.cfg.M*per)
	for m, cents := range q.centroids {
		transposeInto(q.cols[m*per:(m+1)*per], cents)
	}
}

// subCols returns subspace m's block of the scan copy.
func (q *Quantizer) subCols(m int) []float32 {
	per := q.sub * q.cfg.KS
	return q.cols[m*per : (m+1)*per]
}

// trainSubspace runs k-means on one coordinate block.
func trainSubspace(data *vec.Matrix, m, sub, ks, iters int, rng *rand.Rand) *vec.Matrix {
	n := data.Rows()
	cents := vec.NewMatrix(ks, sub)
	// k-means++-lite: random distinct starting rows.
	perm := rng.Perm(n)
	for c := 0; c < ks; c++ {
		copy(cents.Row(c), data.Row(perm[c])[m*sub:(m+1)*sub])
	}
	assign := make([]int, n)
	dists := make([]float32, ks)
	cols := make([]float32, sub*ks)
	counts := make([]int, ks)
	sums := make([]float64, ks*sub)
	for it := 0; it < iters; it++ {
		// The update below moves the row-major centroids; the assignment
		// scan reads this iteration's dimension-major copy of them.
		transposeInto(cols, cents)
		changed := 0
		for i := 0; i < n; i++ {
			vec.SubspaceL2(data.Row(i)[m*sub:(m+1)*sub], cols, ks, dists)
			if best := vec.ArgMin(dists); assign[i] != best {
				assign[i] = best
				changed++
			}
		}
		// Recompute centroids.
		clear(counts)
		clear(sums)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			sum := sums[c*sub : (c+1)*sub]
			for j, v := range data.Row(i)[m*sub : (m+1)*sub] {
				sum[j] += float64(v)
			}
		}
		for c := 0; c < ks; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random point.
				copy(cents.Row(c), data.Row(rng.Intn(n))[m*sub:(m+1)*sub])
				continue
			}
			row := cents.Row(c)
			for j := range row {
				row[j] = float32(sums[c*sub+j] / float64(counts[c]))
			}
		}
		if changed == 0 {
			break
		}
	}
	return cents
}

// encodeInto writes row's M code bytes into dst. scratch must hold at
// least KS floats; it receives each subspace's centroid distances from
// one batched scan.
func (q *Quantizer) encodeInto(row []float32, dst []byte, scratch []float32) {
	ks := q.cfg.KS
	dists := scratch[:ks]
	for m := 0; m < q.cfg.M; m++ {
		vec.SubspaceL2(row[m*q.sub:(m+1)*q.sub], q.subCols(m), ks, dists)
		dst[m] = byte(vec.ArgMin(dists))
	}
}

// encodeRows encodes rows [lo, hi) of data into dst (M bytes per row, row
// lo first), splitting the rows into disjoint chunks across cores.
func (q *Quantizer) encodeRows(data *vec.Matrix, lo, hi int, dst []byte) {
	m := q.cfg.M
	parallel(hi-lo, 256, func(a, b int) {
		scratch := make([]float32, q.cfg.KS)
		for i := a; i < b; i++ {
			q.encodeInto(data.Row(lo+i), dst[i*m:(i+1)*m], scratch)
		}
	})
}

// AppendRow encodes one new row with the frozen codebooks and appends its
// code, growing the encoded set by one (ids stay aligned with the graph:
// the appended row gets id Rows()-1 after the call). Training never
// reruns — an online index encodes inserts incrementally against the
// codebook it trained (or recovered), which is what keeps persisted codes
// and replayed codes bit-identical. Not safe for concurrent use; callers
// serialize appends under their write lock.
func (q *Quantizer) AppendRow(row []float32) {
	if len(row) != q.dim {
		panic("pq: row dimension mismatch")
	}
	if cap(q.encScratch) < q.cfg.KS {
		q.encScratch = make([]float32, q.cfg.KS)
	}
	var code [256]byte
	dst := code[:q.cfg.M]
	q.encodeInto(row, dst, q.encScratch)
	q.codes = append(q.codes, dst...)
	q.rows++
}

// AppendRowsFrom encodes rows [lo, hi) of m and appends their codes — the
// bulk form of AppendRow (same bytes) that recovery uses to re-encode
// WAL-replayed inserts and a reshard child to encode its share.
func (q *Quantizer) AppendRowsFrom(m *vec.Matrix, lo, hi int) {
	if hi <= lo {
		return
	}
	if m.Dim() != q.dim {
		panic("pq: row dimension mismatch")
	}
	at := len(q.codes)
	q.codes = append(q.codes, make([]byte, (hi-lo)*q.cfg.M)...)
	q.encodeRows(m, lo, hi, q.codes[at:])
	q.rows += hi - lo
}

// CloneEmpty returns a quantizer sharing this one's frozen codebooks but
// holding no codes: the form a reshard child starts from, re-encoding its
// own rows under the parent's centroids so codes stay comparable across
// the split (row-stable within each child, same codebook everywhere).
// The centroid matrices and their scan copy are shared, not copied — they
// are immutable after Train.
func (q *Quantizer) CloneEmpty() *Quantizer {
	return &Quantizer{
		cfg:       q.cfg,
		dim:       q.dim,
		sub:       q.sub,
		centroids: q.centroids,
		cols:      q.cols,
	}
}

// Code returns the code bytes of row i (aliasing internal storage).
func (q *Quantizer) Code(i int) []byte { return q.codes[i*q.cfg.M : (i+1)*q.cfg.M] }

// Rows returns the number of encoded rows.
func (q *Quantizer) Rows() int { return q.rows }

// M returns the number of subspaces.
func (q *Quantizer) M() int { return q.cfg.M }

// Dim returns the trained vector dimension.
func (q *Quantizer) Dim() int { return q.dim }

// Config returns the effective training configuration (KS may be smaller
// than requested when the training set had fewer rows).
func (q *Quantizer) Config() Config { return q.cfg }

// CodeBytes returns the total size of the stored codes in bytes.
func (q *Quantizer) CodeBytes() int { return len(q.codes) }

// CodebookBytes returns the size of the centroid tables in bytes — with
// CodeBytes, the resident cost of serving from the compressed domain. It
// counts the row-major tables, the ones the sidecar persists;
// ScanCopyBytes reports the derived copy beside it.
func (q *Quantizer) CodebookBytes() int {
	return q.cfg.M * q.cfg.KS * q.sub * 4
}

// ScanCopyBytes returns the size of the derived dimension-major copy of
// the centroid tables: as large as CodebookBytes, also in heap, and kept
// out of that number so resident figures stay comparable with those
// recorded before the copy existed.
func (q *Quantizer) ScanCopyBytes() int { return len(q.cols) * 4 }

// Decode reconstructs the quantized approximation of row i.
func (q *Quantizer) Decode(i int) []float32 {
	out := make([]float32, q.dim)
	code := q.Code(i)
	for m := 0; m < q.cfg.M; m++ {
		copy(out[m*q.sub:(m+1)*q.sub], q.centroids[m].Row(int(code[m])))
	}
	return out
}

// Table is the per-query ADC lookup table, flat: Table[m*KS+c] is the
// partial squared distance between the query's m-th block and centroid c
// of that subspace.
type Table []float32

// BuildTable precomputes the ADC table for a query (L2 / squared-distance
// semantics; for inner product or cosine on normalized data the L2 table
// preserves the ranking).
func (q *Quantizer) BuildTable(query []float32) Table {
	return q.BuildTableInto(nil, query)
}

// BuildTableInto is BuildTable writing into t's storage when it is large
// enough (M·KS floats), so a searcher builds every query's table in the
// one buffer it owns.
func (q *Quantizer) BuildTableInto(t Table, query []float32) Table {
	if len(query) != q.dim {
		panic("pq: query dimension mismatch")
	}
	ks := q.cfg.KS
	if n := q.cfg.M * ks; cap(t) < n {
		t = make(Table, n)
	} else {
		t = t[:n]
	}
	for m := 0; m < q.cfg.M; m++ {
		// One kernel call scores the query's m-th block against the whole
		// m-th codebook, filling that table row.
		vec.SubspaceL2(query[m*q.sub:(m+1)*q.sub], q.subCols(m), ks, t[m*ks:(m+1)*ks])
	}
	return t
}

// ADC returns the asymmetric approximate squared distance between the
// table's query and encoded row i: M table lookups, no float math on the
// original vectors.
func (q *Quantizer) ADC(t Table, i int) float32 {
	ks := q.cfg.KS
	var s float32
	for m, c := range q.Code(i) {
		s += t[m*ks+int(c)]
	}
	return s
}

// QuantizationError returns the mean squared reconstruction error over
// the encoded dataset (diagnostic).
func (q *Quantizer) QuantizationError(data *vec.Matrix) float64 {
	n := data.Rows()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(vec.L2Squared(data.Row(i), q.Decode(i)))
	}
	return sum / float64(n)
}

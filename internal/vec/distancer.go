package vec

// QueryDistancer scores one query against the rows of a matrix, counting
// every evaluation the way DistanceCounter does (the paper's NDC measure).
// Preparing it once per search hoists the per-call waste out of the hot
// loop: the metric dispatch, and — for cosine — the query norm, which
// CosineDistance would otherwise recompute (a full extra dot product) on
// every single evaluation. When the caller also supplies precomputed row
// norms (see RowNorms), cosine drops from three dot products per
// evaluation to one, matching L2 and inner product.
//
// The cosine expression is evaluated exactly as CosineDistance evaluates
// it — 1 - dot/(nx*ny) with norms produced by the same Norm kernel — so a
// prepared search returns bit-identical distances to the unprepared path.
//
// A QueryDistancer is not safe for concurrent use; searches that run in
// parallel each prepare their own and merge counts afterwards.
type QueryDistancer struct {
	// Metric is the wrapped metric.
	Metric Metric
	// Count accumulates the number of distance evaluations (NDC).
	Count int64

	q        []float32
	qNorm    float32   // Euclidean norm of q; only set for Cosine
	rowNorms []float32 // optional per-row norms; only used for Cosine
}

// NewQueryDistancer prepares met's distance against q. rowNorms, when
// non-nil, must hold Norm(m.Row(i)) for every row i that will be scored
// (ids beyond its length fall back to computing the norm); it is ignored
// for metrics other than Cosine.
func NewQueryDistancer(met Metric, q []float32, rowNorms []float32) QueryDistancer {
	var qNorm float32
	if met == Cosine {
		qNorm = Norm(q)
	}
	return NewQueryDistancerNorm(met, q, qNorm, rowNorms)
}

// NewQueryDistancerNorm is NewQueryDistancer for a query whose norm the
// caller already holds — a matrix row scored against its neighbours, whose
// norm sits in the row-norm cache. qNorm must be Norm(q) (it is only read
// for Cosine); the distancer is then the same, bit for bit, as the one
// NewQueryDistancer would have built.
func NewQueryDistancerNorm(met Metric, q []float32, qNorm float32, rowNorms []float32) QueryDistancer {
	d := QueryDistancer{Metric: met, q: q, rowNorms: rowNorms}
	if met == Cosine {
		d.qNorm = qNorm
	}
	return d
}

// RowDistance scores row id of m, counting one evaluation.
func (d *QueryDistancer) RowDistance(m *Matrix, id uint32) float32 {
	return d.Score(m.Row(int(id)), id)
}

// Score scores row, the contents of row id of the matrix the row-norm
// cache describes, wherever those contents are stored (an on-disk tier,
// say), counting one evaluation. It returns what RowDistance returns for
// that row.
func (d *QueryDistancer) Score(row []float32, id uint32) float32 {
	d.Count++
	switch d.Metric {
	case L2:
		return active.l2(d.q, row)
	case InnerProduct:
		return -active.dot(d.q, row)
	case Cosine:
		return d.cosine(active.dot(d.q, row), row, id)
	default:
		panic("vec: invalid metric")
	}
}

// Distance scores an arbitrary vector (no row-norm cache applies),
// counting one evaluation. It exists so code paths that mix matrix rows
// with standalone vectors can keep a single NDC counter.
func (d *QueryDistancer) Distance(y []float32) float32 {
	d.Count++
	switch d.Metric {
	case L2:
		return active.l2(d.q, y)
	case InnerProduct:
		return -active.dot(d.q, y)
	case Cosine:
		ny := Norm(y)
		if d.qNorm == 0 || ny == 0 {
			return 1
		}
		return 1 - active.dot(d.q, y)/(d.qNorm*ny)
	default:
		panic("vec: invalid metric")
	}
}

// cosine turns dot = Dot(q, row) into the cosine distance to row id.
func (d *QueryDistancer) cosine(dot float32, row []float32, id uint32) float32 {
	var ny float32
	if int(id) < len(d.rowNorms) {
		ny = d.rowNorms[id]
	} else {
		ny = Norm(row)
	}
	if d.qNorm == 0 || ny == 0 {
		return 1
	}
	return 1 - dot/(d.qNorm*ny)
}

// RowDistances scores every listed row into out[i] (which must have at
// least len(ids) entries), counting len(ids) evaluations. This is the
// batched kernel of the search loop: one gather-kernel call scores a whole
// hop's neighbour list — on AVX2 with the next rows prefetched while the
// current one is reduced — and every out[i] is the bits RowDistance
// returns for that row.
func (d *QueryDistancer) RowDistances(m *Matrix, ids []uint32, out []float32) {
	if len(d.q) != m.Dim() {
		panic("vec: dimension mismatch")
	}
	d.Count += int64(len(ids))
	out = out[:len(ids)]
	switch d.Metric {
	case L2:
		active.l2Rows(d.q, m, ids, out)
	case InnerProduct:
		active.dotRows(d.q, m, ids, out)
		for i := range out {
			out[i] = -out[i]
		}
	case Cosine:
		active.dotRows(d.q, m, ids, out)
		norms := d.rowNorms
		for i, id := range ids {
			if int(id) < len(norms) && d.qNorm != 0 && norms[id] != 0 {
				out[i] = 1 - out[i]/(d.qNorm*norms[id]) // cosine's expression
			} else {
				out[i] = d.cosine(out[i], m.Row(int(id)), id)
			}
		}
	default:
		panic("vec: invalid metric")
	}
}

// RowDistancesRange scores the contiguous row range [lo, hi) into
// out[i-lo] (out must have at least hi-lo entries), counting hi-lo
// evaluations. Brute-force scans use this: the rows are adjacent in
// memory, so the kernel streams through the matrix at full bandwidth.
func (d *QueryDistancer) RowDistancesRange(m *Matrix, lo, hi int, out []float32) {
	if len(d.q) != m.Dim() {
		panic("vec: dimension mismatch")
	}
	d.Count += int64(hi - lo)
	q := d.q
	switch d.Metric {
	case L2:
		l2 := active.l2
		for i := lo; i < hi; i++ {
			out[i-lo] = l2(q, m.Row(i))
		}
	case InnerProduct:
		dot := active.dot
		for i := lo; i < hi; i++ {
			out[i-lo] = -dot(q, m.Row(i))
		}
	case Cosine:
		dot := active.dot
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			out[i-lo] = d.cosine(dot(q, row), row, uint32(i))
		}
	default:
		panic("vec: invalid metric")
	}
}

// RowNorms returns the Euclidean norm of every row of m, for use as a
// QueryDistancer norm cache. Cosine indexes compute this once per matrix
// (and extend it per appended row) instead of once per evaluation.
func RowNorms(m *Matrix) []float32 {
	n := m.Rows()
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		out[i] = Norm(m.Row(i))
	}
	return out
}

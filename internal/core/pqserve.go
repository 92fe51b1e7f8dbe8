package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/obs"
	"ngfix/internal/parallel"
	"ngfix/internal/pq"
	"ngfix/internal/vec"
)

// Memory-tiered serving: with PQ enabled, the fixer's serving path runs
// in the compressed domain. Searches navigate the graph on ADC table
// lookups over the contiguous code array (M bytes per vertex instead of
// dim×4), touch full-precision rows only to exact-rerank the top ~4·k
// candidates — from an mmap'd tier file when one is configured, so those
// rows live in reclaimable page cache rather than the heap — and fix
// batches compute their approximate truth through the same compressed
// searchers, so repair traffic does not resurrect the full-precision
// working set either.
//
// Inserts encode incrementally against the frozen codebooks (training
// never reruns online), snapshots persist codebooks+codes as a sidecar
// next to the graph (see persist.SnapshotPQ), and recovery re-encodes
// WAL-replayed inserts with the persisted codebooks — replay, don't
// re-encode the snapshotted rows; never retrain — which keeps a recovered
// shard's codes bit-identical to the crashed one's.

// PQConfig turns on compressed serving for an OnlineFixer.
type PQConfig struct {
	// M is the subspace count (0 → pq.DefaultConfig for the dimension,
	// which refuses dims it would degrade to M=1 on).
	M int
	// KS is centroids per subspace (default 64).
	KS int
	// Iters is k-means iterations when training (default 8).
	Iters int
	// Seed drives training initialization (default 23).
	Seed int64
	// RerankFactor sizes the exact-rerank pool as RerankFactor·k per
	// search (default 4).
	RerankFactor int
	// TierPath, when set, demotes the full vectors for reranking to an
	// mmap'd tier file at this path (written at enable/attach time).
	// Empty serves reranks from the in-heap matrix.
	TierPath string
}

func (c PQConfig) rerankFactor() int {
	if c.RerankFactor <= 0 {
		return 4
	}
	return c.RerankFactor
}

func (c PQConfig) quantizerConfig(dim int) (pq.Config, error) {
	if c.M > 0 {
		cfg := pq.Config{M: c.M, KS: c.KS, Iters: c.Iters, Seed: c.Seed}
		if cfg.KS <= 0 {
			cfg.KS = 64
		}
		if cfg.Iters <= 0 {
			cfg.Iters = 8
		}
		if cfg.Seed == 0 {
			cfg.Seed = 23
		}
		return cfg, nil
	}
	cfg, err := pq.DefaultConfig(dim)
	if err != nil {
		return pq.Config{}, err
	}
	if c.KS > 0 {
		cfg.KS = c.KS
	}
	if c.Iters > 0 {
		cfg.Iters = c.Iters
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	return cfg, nil
}

// PQWAL is the optional durability extension a WAL can implement to
// persist the quantizer sidecar atomically with each snapshot generation
// (persist.Store does). Without it, snapshots persist the graph alone and
// recovery retrains.
type PQWAL interface {
	SnapshotPQ(g *graph.Graph, q *pq.Quantizer) error
}

// ErrPQEnabled is returned when PQ is enabled or attached twice.
var ErrPQEnabled = errors.New("core: PQ serving already enabled")

// pqState is the fixer's compressed-serving state: the quantizer (codes
// grow with inserts under the write lock), the optional demoted rerank
// tier, a pool of fused searchers, and lock-free served/resident
// counters for stats and metrics.
type pqState struct {
	q      *pq.Quantizer
	tier   *pq.FileTier
	rerank int // pool factor ×k

	searchers sync.Pool

	searches   atomic.Int64
	adcLookups atomic.Int64
	rerankNDC  atomic.Int64
	truncated  atomic.Int64

	codeBytes     atomic.Int64
	codebookBytes atomic.Int64
	tierResident  atomic.Int64
}

func (ps *pqState) observe(st graph.Stats) {
	ps.searches.Add(1)
	ps.adcLookups.Add(st.ADCLookups)
	ps.rerankNDC.Add(st.NDC)
	if st.Truncated {
		ps.truncated.Add(1)
	}
}

func (ps *pqState) updateResident() {
	ps.codeBytes.Store(int64(ps.q.CodeBytes()))
	ps.codebookBytes.Store(int64(ps.q.CodebookBytes()))
	if ps.tier != nil {
		ps.tierResident.Store(ps.tier.ResidentBytes())
	}
}

// pqNormTolerance is how far a row's norm may sit from 1 under
// InnerProduct or Cosine before compressed serving is refused.
const pqNormTolerance = 1e-3

// checkPQMetric refuses graphs the fused path would navigate by the wrong
// order. The ADC table holds squared L2 distances, which rank rows like
// InnerProduct and Cosine do only when every row has unit norm; on other
// rows the beam would follow one order and the exact rerank another, with
// nothing but lost recall to show for it. Rows inserted later are not
// checked.
func checkPQMetric(g *graph.Graph) error {
	if g.Metric == vec.L2 {
		return nil
	}
	norms := g.RowNorms() // cached for Cosine only
	if norms == nil {
		norms = vec.RowNorms(g.Vectors)
	}
	worst, at := float32(0), -1
	for i, n := range norms {
		if dev := float32(math.Abs(float64(n - 1))); dev > worst {
			worst, at = dev, i
		}
	}
	if worst > pqNormTolerance {
		return fmt.Errorf("core: pq navigates by L2, which orders rows like %s only at unit norm: row %d has norm %g (|norm-1| = %g, limit %g); normalize the rows or use L2",
			g.Metric, at, norms[at], worst, float32(pqNormTolerance))
	}
	return nil
}

// EnablePQ trains a quantizer on the current graph vectors and switches
// the serving path to compressed scoring. Call once, before traffic
// (training and the optional tier write hold the write lock for their
// whole duration).
func (o *OnlineFixer) EnablePQ(cfg PQConfig) error {
	qcfg, err := cfg.quantizerConfig(o.dim)
	if err != nil {
		return err
	}
	o.pmu.Lock()
	defer o.pmu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pqs != nil {
		return ErrPQEnabled
	}
	if err := checkPQMetric(o.ix.G); err != nil {
		return err
	}
	q, err := pq.Train(o.ix.G.Vectors, qcfg)
	if err != nil {
		return err
	}
	return o.attachPQLocked(q, cfg)
}

// AttachPQ installs a recovered quantizer (from the persist sidecar)
// instead of training: snapshotted rows keep their persisted codes
// bit-identical, and rows the WAL replay appended after the snapshot are
// re-encoded here with the persisted codebooks — the replay-don't-
// re-encode rule. A quantizer that cannot describe the recovered graph
// (wrong dim, more codes than rows) is rejected; callers fall back to
// EnablePQ.
func (o *OnlineFixer) AttachPQ(q *pq.Quantizer, cfg PQConfig) error {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pqs != nil {
		return ErrPQEnabled
	}
	if q.Dim() != o.dim {
		return fmt.Errorf("core: pq sidecar dim %d != index dim %d", q.Dim(), o.dim)
	}
	if q.Rows() > o.ix.G.Len() {
		return fmt.Errorf("core: pq sidecar has %d codes but graph has %d rows", q.Rows(), o.ix.G.Len())
	}
	if err := checkPQMetric(o.ix.G); err != nil {
		return err
	}
	if q.Rows() < o.ix.G.Len() {
		q.AppendRowsFrom(o.ix.G.Vectors, q.Rows(), o.ix.G.Len())
	}
	return o.attachPQLocked(q, cfg)
}

func (o *OnlineFixer) attachPQLocked(q *pq.Quantizer, cfg PQConfig) error {
	ps := &pqState{q: q, rerank: cfg.rerankFactor()}
	if cfg.TierPath != "" {
		if err := pq.WriteTierFile(cfg.TierPath, o.ix.G.Vectors); err != nil {
			return fmt.Errorf("core: write rerank tier: %w", err)
		}
		tier, err := pq.OpenFileTier(cfg.TierPath)
		if err != nil {
			return fmt.Errorf("core: open rerank tier: %w", err)
		}
		ps.tier = tier
	}
	ps.searchers.New = o.newPQSearcher
	ps.updateResident()
	o.pqs = ps
	if o.reg != nil {
		registerPQMetrics(o.reg, o)
	}
	return nil
}

// newPQSearcher builds a fused searcher against the graph and quantizer
// (invoked by the pool under the read lock, where the two are always in
// step). A pooled one stays valid across inserts: it reads the
// quantizer's codes and the graph at search time.
func (o *OnlineFixer) newPQSearcher() interface{} {
	ps := o.pqs
	s := pq.NewGraphSearcher(o.ix.G, ps.q)
	if ps.tier != nil {
		s.Tier = ps.tier
	}
	return s
}

// pqAppendLocked encodes one inserted row (caller holds the write lock).
func (o *OnlineFixer) pqAppendLocked(v []float32) {
	ps := o.pqs
	if ps == nil {
		return
	}
	ps.q.AppendRow(v)
	if ps.tier != nil {
		ps.tier.AppendRow(v)
	}
	ps.updateResident()
}

// approxTruthLocked routes fix-batch preprocessing to the compressed
// searchers when PQ serving is live, and to the full-precision
// Index.ApproxTruth otherwise. Caller holds the read lock.
func (o *OnlineFixer) approxTruthLocked(queries *vec.Matrix, k, ef int) [][]bruteforce.Neighbor {
	if o.pqs != nil {
		return o.approxTruthPQLocked(queries, k, ef)
	}
	return o.ix.ApproxTruth(queries, k, ef)
}

// approxTruthPQLocked is Index.ApproxTruth running through the fused
// searchers: fix batches repair on the compressed graph, paying exact
// distances only for each truth list's rerank pool. Caller holds the
// read lock.
func (o *OnlineFixer) approxTruthPQLocked(queries *vec.Matrix, k, ef int) [][]bruteforce.Neighbor {
	ps := o.pqs
	nq := queries.Rows()
	out := make([][]bruteforce.Neighbor, nq)
	nw := parallel.Workers(0, nq, 1)
	searchers := make([]*pq.GraphSearcher, nw)
	parallel.For(nw, nq, 1, func(w, lo, hi int) {
		s := searchers[w]
		if s == nil {
			s = pq.NewGraphSearcher(o.ix.G, ps.q)
			if ps.tier != nil {
				s.Tier = ps.tier
			}
			s.Rerank = ps.rerank * k
			searchers[w] = s
		}
		for i := lo; i < hi; i++ {
			res, st := s.Search(queries.Row(i), k, ef)
			ps.adcLookups.Add(st.ADCLookups)
			ps.rerankNDC.Add(st.NDC)
			ns := make([]bruteforce.Neighbor, len(res))
			for j, r := range res {
				ns[j] = bruteforce.Neighbor{ID: r.ID, Dist: r.Dist}
			}
			out[i] = ns
		}
	})
	return out
}

// PQStats is the compressed-serving block of the fixer's stats.
type PQStats struct {
	Enabled bool `json:"enabled"`
	// Shape.
	M      int `json:"m"`
	KS     int `json:"ks"`
	Rerank int `json:"rerank_factor"`
	Rows   int `json:"rows"`
	// Resident accounting: what compressed serving keeps in heap memory
	// versus what the uncompressed arm would.
	CodeBytes         int64 `json:"code_bytes"`
	CodebookBytes     int64 `json:"codebook_bytes"`
	TierResidentBytes int64 `json:"tier_resident_bytes"`
	ResidentBytes     int64 `json:"resident_bytes"`
	FullVectorBytes   int64 `json:"full_vector_bytes"`
	// ScanCopyBytes is the derived dimension-major codebook copy
	// (pq.Quantizer.ScanCopyBytes): in heap, as large as CodebookBytes,
	// and reported here rather than inside ResidentBytes.
	ScanCopyBytes int64 `json:"scan_copy_bytes"`
	// Served work.
	Searches   int64 `json:"searches"`
	ADCLookups int64 `json:"adc_lookups"`
	RerankNDC  int64 `json:"rerank_ndc"`
	Truncated  int64 `json:"truncated"`
}

// PQStats returns the compressed-serving counters; ok is false when PQ is
// not enabled.
func (o *OnlineFixer) PQStats() (PQStats, bool) {
	o.mu.RLock()
	ps := o.pqs
	o.mu.RUnlock()
	if ps == nil {
		return PQStats{}, false
	}
	cfg := ps.q.Config()
	st := PQStats{
		Enabled:           true,
		M:                 cfg.M,
		KS:                cfg.KS,
		Rerank:            ps.rerank,
		Rows:              int(o.nvec.Load()),
		CodeBytes:         ps.codeBytes.Load(),
		CodebookBytes:     ps.codebookBytes.Load(),
		TierResidentBytes: ps.tierResident.Load(),
		FullVectorBytes:   o.nvec.Load() * int64(o.dim) * 4,
		ScanCopyBytes:     int64(ps.q.ScanCopyBytes()),
		Searches:          ps.searches.Load(),
		ADCLookups:        ps.adcLookups.Load(),
		RerankNDC:         ps.rerankNDC.Load(),
		Truncated:         ps.truncated.Load(),
	}
	st.ResidentBytes = st.CodeBytes + st.CodebookBytes + st.TierResidentBytes
	return st, true
}

// registerPQMetrics exports the ngfix_pq_* families. Everything reads
// lock-free atomics, so a scrape never contends with serving.
func registerPQMetrics(reg *obs.Registry, o *OnlineFixer) {
	ps := o.pqs
	reg.CounterFunc("ngfix_pq_searches_total",
		"Searches served through the fused PQ-ADC path.",
		func() float64 { return float64(ps.searches.Load()) })
	reg.CounterFunc("ngfix_pq_adc_lookups_total",
		"Compressed-domain score evaluations (ADC table lookups) across all searches and fix preprocessing.",
		func() float64 { return float64(ps.adcLookups.Load()) })
	reg.CounterFunc("ngfix_pq_rerank_ndc_total",
		"Full-precision distance evaluations paid for exact reranking.",
		func() float64 { return float64(ps.rerankNDC.Load()) })
	reg.CounterFunc("ngfix_pq_truncated_total",
		"Fused searches stopped early by context cancellation.",
		func() float64 { return float64(ps.truncated.Load()) })
	reg.GaugeFunc("ngfix_pq_code_bytes",
		"Bytes of PQ codes resident for compressed navigation.",
		func() float64 { return float64(ps.codeBytes.Load()) })
	reg.GaugeFunc("ngfix_pq_codebook_bytes",
		"Bytes of PQ codebooks resident for compressed navigation.",
		func() float64 { return float64(ps.codebookBytes.Load()) })
	reg.GaugeFunc("ngfix_pq_resident_vector_bytes",
		"Heap-resident bytes of the compressed serving path (codes + codebooks + unflushed tier tail).",
		func() float64 {
			return float64(ps.codeBytes.Load() + ps.codebookBytes.Load() + ps.tierResident.Load())
		})
	reg.GaugeFunc("ngfix_pq_full_vector_bytes",
		"Bytes the uncompressed vector working set occupies (comparison baseline).",
		func() float64 { return float64(o.nvec.Load()) * float64(o.dim) * 4 })
}

// ClosePQ releases the rerank tier mapping (graceful shutdown). Serving
// must have stopped.
func (o *OnlineFixer) ClosePQ() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pqs == nil || o.pqs.tier == nil {
		return nil
	}
	return o.pqs.tier.Close()
}

// searchPQ serves one query through the fused path; callers hold the read
// lock. Returned stats carry ADCLookups (navigation) and NDC (rerank).
func (o *OnlineFixer) searchPQLocked(ctx context.Context, ps *pqState, q []float32, k, ef int) ([]graph.Result, graph.Stats) {
	s := ps.searchers.Get().(*pq.GraphSearcher)
	s.Rerank = ps.rerank * k
	res, st := s.SearchCtx(ctx, q, k, ef)
	ps.searchers.Put(s)
	return res, st
}

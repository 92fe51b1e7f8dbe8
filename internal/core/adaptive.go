package core

import (
	"sort"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// AdaptiveEF implements the §7 "Query Similarities" direction: the search
// list size needed for a target recall varies strongly with how similar a
// query is to the fixed (historical) workload — Figure 9's observation —
// so instead of one global ef, pick ef per query from its distance to the
// nearest historical query.
//
// The similarity probe must itself be fast, so the historical queries are
// indexed with a small HNSW; one cheap 1-NN search per query yields the
// distance that selects the ef bucket.
type AdaptiveEF struct {
	histIndex  *graph.Graph
	histSearch *graph.Searcher
	probeEF    int
	// ascending distance thresholds; queries beyond the last use EFs' tail.
	thresholds []float32
	efs        []int
}

// AdaptiveConfig controls calibration.
type AdaptiveConfig struct {
	// Buckets is the number of similarity bands (default 3: the paper's
	// high / moderate / low).
	Buckets int
	// TargetRecall is the per-bucket recall the calibration aims for
	// (default 0.95).
	TargetRecall float64
	// CandidateEFs are the ef values calibration may assign, ascending
	// (default 10..200 step 10 starting at K).
	CandidateEFs []int
	// K is the result size recall is measured at (default 10).
	K int
	// ProbeEF is the search list for the similarity probe (default 16).
	ProbeEF int
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Buckets <= 0 {
		c.Buckets = 3
	}
	if c.TargetRecall == 0 {
		c.TargetRecall = 0.95
	}
	if c.K <= 0 {
		c.K = 10
	}
	if len(c.CandidateEFs) == 0 {
		c.CandidateEFs = metrics.DefaultEFs(c.K, 10, 200)
	}
	if c.ProbeEF <= 0 {
		c.ProbeEF = 16
	}
	return c
}

// CalibrateAdaptiveEF fits an AdaptiveEF policy for the index. It
// indexes history with a small HNSW (the similarity probe's graph), sorts
// the calibration queries into cfg.Buckets equal-count bands by their
// distance to the nearest historical query, and gives each band the
// smallest candidate ef whose mean recall against calibTruth over the
// band reaches the target (the largest candidate when none does). Nil
// when history or calib is empty.
//
// history is the workload the index was fixed with; calib/calibTruth are
// held-out queries with ground truth (ApproxTruth is fine).
func CalibrateAdaptiveEF(ix *Index, history, calib *vec.Matrix, calibTruth [][]bruteforce.Neighbor, cfg AdaptiveConfig) *AdaptiveEF {
	if history.Rows() == 0 || calib.Rows() == 0 {
		return nil
	}
	c := cfg.withDefaults()
	s := ix.Searcher()
	recall := func(qi, ef int) float64 {
		res, _ := s.SearchFrom(calib.Row(qi), c.K, ef, ix.G.EntryPoint)
		truth := bruteforce.IDs(calibTruth[qi])
		return metrics.Recall(graph.IDs(res), truth[:min(c.K, len(truth))])
	}
	h := hnsw.Build(history.Clone(), hnsw.Config{M: 8, EFConstruction: 60, Metric: ix.G.Metric})
	a := newAdaptiveEF(h.Bottom(), c.ProbeEF, nil, nil)

	// Distance of each calibration query to its nearest historical query.
	nq := calib.Rows()
	type qd struct {
		qi int
		d  float32
	}
	ds := make([]qd, nq)
	for qi := 0; qi < nq; qi++ {
		d, _ := a.probe(calib.Row(qi))
		ds[qi] = qd{qi, d}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })

	for b := 0; b < c.Buckets; b++ {
		lo := b * nq / c.Buckets
		hi := (b + 1) * nq / c.Buckets
		if lo >= hi {
			continue
		}
		// Smallest ef reaching the target on this band. The last band is
		// never empty, so every band but it gets an upper threshold.
		chosen := c.CandidateEFs[len(c.CandidateEFs)-1]
		for _, ef := range c.CandidateEFs {
			var sum float64
			for _, x := range ds[lo:hi] {
				sum += recall(x.qi, ef)
			}
			if sum/float64(hi-lo) >= c.TargetRecall {
				chosen = ef
				break
			}
		}
		a.efs = append(a.efs, chosen)
		if b < c.Buckets-1 {
			a.thresholds = append(a.thresholds, ds[hi-1].d)
		}
	}
	return a
}

// newAdaptiveEF assembles a policy from pre-computed parts: a built
// historical-query graph, the probe width, and the calibrated bands.
// thresholds must be ascending with len(efs) == len(thresholds)+1.
func newAdaptiveEF(hist *graph.Graph, probeEF int, thresholds []float32, efs []int) *AdaptiveEF {
	if probeEF <= 0 {
		probeEF = 16
	}
	return &AdaptiveEF{
		histIndex:  hist,
		histSearch: graph.NewSearcher(hist),
		probeEF:    probeEF,
		thresholds: append([]float32(nil), thresholds...),
		efs:        append([]int(nil), efs...),
	}
}

// probe returns the (approximate) distance from q to the nearest
// historical query and the distance computations the probe search made.
func (a *AdaptiveEF) probe(q []float32) (float32, int64) {
	res, st := a.histSearch.SearchFrom(q, 2, a.probeEF, a.histIndex.EntryPoint)
	if len(res) == 0 {
		return 0, st.NDC
	}
	// A recurring query finds *itself* in the historical index at the
	// metric's self-distance. That match says nothing about difficulty —
	// the bands were calibrated on distances between distinct queries
	// (the history/calibration halves are disjoint), so an exact
	// self-match would drop every repeated query into the easiest band
	// no matter how hard it is. Skip it and read the runner-up.
	if self := a.histIndex.Metric.Distance(q, q); res[0].Dist <= self && len(res) > 1 {
		return res[1].Dist, st.NDC
	}
	return res[0].Dist, st.NDC
}

// EFFor returns the calibrated ef for a query. Not safe for concurrent
// use: it shares one internal searcher.
func (a *AdaptiveEF) EFFor(q []float32) int {
	ef, _ := a.efFor(q)
	return ef
}

// efFor is EFFor plus the probe's distance computations.
func (a *AdaptiveEF) efFor(q []float32) (int, int64) {
	d, ndc := a.probe(q)
	for i, th := range a.thresholds {
		if d <= th {
			return a.efs[i], ndc
		}
	}
	return a.efs[len(a.efs)-1], ndc
}

// Buckets exposes the calibrated policy (thresholds between bands, ef per
// band) for inspection and reporting.
func (a *AdaptiveEF) Buckets() (thresholds []float32, efs []int) {
	return append([]float32(nil), a.thresholds...), append([]int(nil), a.efs...)
}

// SearchAdaptive runs one query with the calibrated per-query ef. The
// returned stats include the probe's distance computations.
func (ix *Index) SearchAdaptive(a *AdaptiveEF, q []float32, k int) ([]graph.Result, graph.Stats) {
	ef, probeNDC := a.efFor(q)
	res, st := ix.Search(q, k, ef)
	st.NDC += probeNDC
	return res, st
}

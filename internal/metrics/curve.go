package metrics

import (
	"sort"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// Point is one operating point on an efficiency–accuracy curve.
type Point struct {
	EF       int     // search list size L
	Recall   float64 // mean recall@k
	RDErr    float64 // mean rderr@k
	QPS      float64 // queries per second (single thread)
	NDC      float64 // mean distance calculations per query
	LatUS    float64 // mean latency, microseconds
	LatP50US float64 // median per-query latency, microseconds
	LatP99US float64 // 99th-percentile per-query latency, microseconds
	Elapsed  time.Duration
}

// Curve is a sweep of operating points in increasing EF order.
type Curve []Point

// SweepConfig controls a QPS/recall sweep.
type SweepConfig struct {
	K       int   // result size (recall@K)
	EFs     []int // search list sizes to evaluate
	Queries *vec.Matrix
	Truth   [][]bruteforce.Neighbor // exact top-≥K per query
}

// DefaultEFs returns the paper's sweep: start at k, step by `step` up to max.
func DefaultEFs(k, step, max int) []int {
	var efs []int
	for ef := k; ef <= max; ef += step {
		efs = append(efs, ef)
	}
	return efs
}

// SearchFunc is any index's single-query search entry point: return the
// top-k under search-list size ef, plus cost stats.
type SearchFunc func(q []float32, k, ef int) ([]graph.Result, graph.Stats)

// Sweep runs the ef sweep against a graph using a fresh searcher, timing
// single-threaded batch latency exactly as the paper's harness does.
func Sweep(g *graph.Graph, cfg SweepConfig) Curve {
	s := graph.NewSearcher(g)
	return SweepFunc(s.Search, cfg)
}

// SweepFunc is Sweep for any index exposing a SearchFunc (the NGFix
// wrapper, a PQ searcher, ...).
func SweepFunc(fn SearchFunc, cfg SweepConfig) Curve {
	truthIDs := TruthIDs(cfg.Truth, cfg.K)
	var curve Curve
	nq := cfg.Queries.Rows()
	lats := make([]float64, nq)
	for _, ef := range cfg.EFs {
		var totalNDC int64
		var sumRecall, sumRDErr float64
		start := time.Now()
		for qi := 0; qi < nq; qi++ {
			qStart := time.Now()
			res, st := fn(cfg.Queries.Row(qi), cfg.K, ef)
			lats[qi] = time.Since(qStart).Seconds() * 1e6
			totalNDC += st.NDC
			sumRecall += Recall(graph.IDs(res), truthIDs[qi])
			sumRDErr += RDErr(res, cfg.Truth[qi][:minInt(cfg.K, len(cfg.Truth[qi]))])
		}
		elapsed := time.Since(start)
		sorted := append([]float64(nil), lats...)
		sort.Float64s(sorted)
		curve = append(curve, Point{
			EF:       ef,
			Recall:   sumRecall / float64(nq),
			RDErr:    sumRDErr / float64(nq),
			QPS:      float64(nq) / elapsed.Seconds(),
			NDC:      float64(totalNDC) / float64(nq),
			LatUS:    elapsed.Seconds() * 1e6 / float64(nq),
			LatP50US: percentileOf(sorted, 0.50),
			LatP99US: percentileOf(sorted, 0.99),
			Elapsed:  elapsed,
		})
	}
	return curve
}

// percentileOf reads the p-quantile from an ascending-sorted slice.
func percentileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// QPSAtRecall linearly interpolates the QPS the curve achieves at the
// given recall target; ok is false when the curve never reaches it.
// This backs the paper's "QPS at recall@100 = 0.95 / 0.99" headline rows.
func (c Curve) QPSAtRecall(target float64) (qps float64, ok bool) {
	for i := 0; i < len(c); i++ {
		if c[i].Recall >= target {
			if i == 0 {
				return c[0].QPS, true
			}
			lo, hi := c[i-1], c[i]
			if hi.Recall == lo.Recall {
				return hi.QPS, true
			}
			t := (target - lo.Recall) / (hi.Recall - lo.Recall)
			return lo.QPS + t*(hi.QPS-lo.QPS), true
		}
	}
	return 0, false
}

// NDCAtRDErr interpolates the NDC needed to push rderr down to the target
// (curves have decreasing rderr in EF); ok is false if never reached.
func (c Curve) NDCAtRDErr(target float64) (ndc float64, ok bool) {
	for i := 0; i < len(c); i++ {
		if c[i].RDErr <= target {
			if i == 0 {
				return c[0].NDC, true
			}
			lo, hi := c[i-1], c[i]
			if hi.RDErr == lo.RDErr {
				return hi.NDC, true
			}
			t := (lo.RDErr - target) / (lo.RDErr - hi.RDErr)
			return lo.NDC + t*(hi.NDC-lo.NDC), true
		}
	}
	return 0, false
}

// MaxRecall returns the best recall on the curve.
func (c Curve) MaxRecall() float64 {
	best := 0.0
	for _, p := range c {
		if p.Recall > best {
			best = p.Recall
		}
	}
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package core

import (
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

func TestAdaptiveEFCalibration(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 20, RFix: true}}, LEx: 32})
	ix.Fix(d.History, ExactTruth(d.Base, d.History, vec.L2, 40))

	// Calibrate on half the OOD test set, evaluate on the other half.
	calib := d.TestOOD.Slice(0, 40)
	calibTruth := bruteforce.AllKNN(d.Base, calib, vec.L2, 10)
	a := CalibrateAdaptiveEF(ix, d.History, calib, calibTruth, AdaptiveConfig{
		Buckets: 3, TargetRecall: 0.95, K: 10,
	})
	ths, efs := a.Buckets()
	if len(efs) != 3 || len(ths) != 2 {
		t.Fatalf("policy shape: thresholds=%v efs=%v", ths, efs)
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] < ths[i-1] {
			t.Fatal("thresholds not ascending")
		}
	}
	for _, ef := range efs {
		if ef < 10 || ef > 200 {
			t.Fatalf("ef out of candidate range: %v", efs)
		}
	}

	// Held-out evaluation: adaptive search should reach the target recall
	// while a fixed ef equal to the *cheapest* bucket's ef may not.
	eval := d.TestOOD.Slice(40, 80)
	evalTruth := bruteforce.AllKNN(d.Base, eval, vec.L2, 10)
	var sumAdaptive float64
	var ndcAdaptive int64
	for qi := 0; qi < eval.Rows(); qi++ {
		res, st := ix.SearchAdaptive(a, eval.Row(qi), 10)
		ndcAdaptive += st.NDC
		sumAdaptive += metrics.Recall(graph.IDs(res), bruteforce.IDs(evalTruth[qi]))
	}
	recallAdaptive := sumAdaptive / float64(eval.Rows())
	if recallAdaptive < 0.9 {
		t.Fatalf("adaptive recall = %.3f, want >= 0.9", recallAdaptive)
	}

	// Compare against the max fixed ef (the conservative global policy):
	// adaptive must not need more NDC than always-max.
	maxEF := efs[0]
	for _, ef := range efs {
		if ef > maxEF {
			maxEF = ef
		}
	}
	var ndcMax int64
	for qi := 0; qi < eval.Rows(); qi++ {
		_, st := ix.Search(eval.Row(qi), 10, maxEF)
		ndcMax += st.NDC
	}
	if efs[0] != efs[len(efs)-1] && ndcAdaptive >= ndcMax {
		t.Fatalf("adaptive NDC %d not below always-max-ef NDC %d", ndcAdaptive, ndcMax)
	}
	t.Logf("adaptive: recall %.3f, NDC %d vs always-ef%d NDC %d (policy ths=%v efs=%v)",
		recallAdaptive, ndcAdaptive, maxEF, ndcMax, ths, efs)
}

func TestAdaptiveEFForMonotone(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	ix.Fix(d.History, ExactTruth(d.Base, d.History, vec.L2, 30))
	calib := d.TestOOD.Slice(0, 30)
	calibTruth := bruteforce.AllKNN(d.Base, calib, vec.L2, 10)
	a := CalibrateAdaptiveEF(ix, d.History, calib, calibTruth, AdaptiveConfig{Buckets: 2})
	// EFFor must return one of the calibrated efs for any query.
	_, efs := a.Buckets()
	allowed := map[int]bool{}
	for _, ef := range efs {
		allowed[ef] = true
	}
	for qi := 0; qi < 10; qi++ {
		if !allowed[a.EFFor(d.TestOOD.Row(qi))] {
			t.Fatal("EFFor returned an uncalibrated ef")
		}
	}
	// A historical query itself is maximally similar → first bucket.
	if got := a.EFFor(d.History.Row(0)); got != efs[0] {
		t.Fatalf("historical query got ef %d, want first bucket %d", got, efs[0])
	}
}

func TestAdaptiveEFProbeSkipsSelfMatch(t *testing.T) {
	// A recurring query finds *itself* in the historical index at the
	// metric's self-distance. The probe must read the distance to the
	// nearest distinct query instead, or every repeat of a hard query
	// would be served with the easiest band's ef (the bands are
	// calibrated on distances between distinct queries).
	hist := vec.NewMatrix(0, 4)
	hard := []float32{1, 0, 0, 0}
	hist.Append(hard)
	hist.Append([]float32{0, 1, 0, 0})
	hist.Append([]float32{0, 0.9, 0.1, 0})
	hist.Append([]float32{0, 0, 1, 0})
	h := hnsw.Build(hist.Clone(), hnsw.Config{M: 4, EFConstruction: 20, Metric: vec.L2})
	a := newAdaptiveEF(h.Bottom(), 8, []float32{0.5}, []int{20, 200})

	// hard is in the index (self-distance 0) but its nearest distinct
	// neighbor is √2 away: it must classify into the far band.
	if ef := a.EFFor(hard); ef != 200 {
		t.Fatalf("recurring hard query got ef %d, want 200", ef)
	}
	// A genuinely near (but distinct) query still classifies easy.
	if ef := a.EFFor([]float32{0, 0.95, 0.05, 0}); ef != 20 {
		t.Fatalf("near query got ef %d, want 20", ef)
	}
}

// SearchAdaptive's work is the probe search it runs plus the main search:
// its NDC must equal both, counted by hand with searchers of our own.
func TestSearchAdaptiveCountsProbeNDC(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 20, RFix: true}}, LEx: 32})
	ix.Fix(d.History, ExactTruth(d.Base, d.History, vec.L2, 40))
	calib := d.TestOOD.Slice(0, 40)
	a := CalibrateAdaptiveEF(ix, d.History, calib, bruteforce.AllKNN(d.Base, calib, vec.L2, 10), AdaptiveConfig{})

	probe := graph.NewSearcher(a.histIndex)
	main := ix.Searcher()
	for qi := 40; qi < 80; qi++ {
		q := d.TestOOD.Row(qi)
		_, pst := probe.SearchFrom(q, 2, a.probeEF, a.histIndex.EntryPoint)
		_, mst := main.SearchFrom(q, 10, a.EFFor(q), ix.G.EntryPoint)
		if _, st := ix.SearchAdaptive(a, q, 10); st.NDC != pst.NDC+mst.NDC {
			t.Fatalf("query %d: SearchAdaptive NDC %d, probe %d + search %d = %d",
				qi, st.NDC, pst.NDC, mst.NDC, pst.NDC+mst.NDC)
		}
	}
}

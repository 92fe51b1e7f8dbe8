package policy

import (
	"sync"
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// testIndex builds a small fixed index plus the workload that queries it.
func testIndex(t *testing.T) (*core.Index, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "policy", N: 600, NHist: 200, NTest: 60,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 9,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	return core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24}), d
}

func adaptiveUnderTest(t *testing.T, ix *core.Index) *Adaptive {
	t.Helper()
	search := func(q []float32, k, ef int) []graph.Result {
		res, _ := ix.Search(q, k, ef)
		return res
	}
	return NewAdaptive(8, AdaptiveConfig{
		ReservoirSize: 64, MinSamples: 32, RecalEvery: 64,
		Buckets: 2, K: 5, Metric: vec.L2, Seed: 2,
	}, search)
}

func TestAdaptiveSelfCalibrates(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix)

	if a.Ready() {
		t.Fatal("ready before any traffic")
	}
	if _, _, ok := a.EFFor(d.TestOOD.Row(0)); ok {
		t.Fatal("EFFor ok before calibration")
	}

	// Feed traffic until Record signals the first calibration is due.
	want := false
	fed := 0
	for i := 0; i < d.History.Rows() && !want; i++ {
		want = a.Record(d.History.Row(i))
		fed++
	}
	if !want {
		t.Fatalf("no calibration requested after %d queries (MinSamples 32)", fed)
	}
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("calibration did not run")
	}
	if !a.Ready() {
		t.Fatal("not ready after calibration")
	}
	ths, efs := a.Buckets()
	if len(efs) == 0 || len(ths) != len(efs)-1 {
		t.Fatalf("policy shape: thresholds=%v efs=%v", ths, efs)
	}

	allowed := map[int]bool{}
	for _, ef := range efs {
		allowed[ef] = true
	}
	ef, probe, ok := a.EFFor(d.TestOOD.Row(0))
	if !ok || !allowed[ef] || probe <= 0 {
		t.Fatalf("EFFor: ef=%d probe=%d ok=%v (allowed %v)", ef, probe, ok, efs)
	}
	if done, _ := a.Recalibrations(); done != 1 {
		t.Fatalf("recalibrations = %d, want 1", done)
	}
}

// TestAdaptiveDeferralWhenDenied: calibration gated by admission must
// step aside when the limiter says no, count the deferral, and leave the
// current policy serving.
func TestAdaptiveDeferralWhenDenied(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix)
	for i := 0; i < 40; i++ {
		a.Record(d.History.Row(i))
	}
	deny := func() (func(), bool) { return nil, false }
	if a.MaybeRecalibrate(deny) {
		t.Fatal("calibration ran despite denied admission")
	}
	if a.Ready() {
		t.Fatal("denied calibration installed a policy")
	}
	if done, deferred := a.Recalibrations(); done != 0 || deferred != 1 {
		t.Fatalf("recals=%d deferrals=%d, want 0 and 1", done, deferred)
	}
	// Granted admission must release exactly once and complete.
	var released int
	grant := func() (func(), bool) { return func() { released++ }, true }
	if !a.MaybeRecalibrate(grant) {
		t.Fatal("granted calibration did not run")
	}
	if released != 1 {
		t.Fatalf("release called %d times, want 1", released)
	}
}

// TestAdaptiveConcurrentEFFor runs EFFor/Record from many goroutines
// while recalibrations swap the policy underneath — the -race target for
// the wait-free serving path.
func TestAdaptiveConcurrentEFFor(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix)
	for i := 0; i < 40; i++ {
		a.Record(d.History.Row(i))
	}
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("seed calibration failed")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := d.TestOOD.Row((w*7 + i) % d.TestOOD.Rows())
				if ef, _, ok := a.EFFor(q); ok && ef <= 0 {
					t.Errorf("EFFor returned non-positive ef %d", ef)
					return
				}
				a.Record(q)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			a.MaybeRecalibrate(nil)
		}
	}()
	wg.Wait()
	if !a.Ready() {
		t.Fatal("policy lost under concurrency")
	}
}

func TestAdaptiveNilSafe(t *testing.T) {
	var a *Adaptive
	if a.Ready() || a.Record(nil) {
		t.Fatal("nil adaptive active")
	}
	if _, _, ok := a.EFFor(nil); ok {
		t.Fatal("nil EFFor ok")
	}
	if a.MaybeRecalibrate(nil) {
		t.Fatal("nil recalibrated")
	}
}

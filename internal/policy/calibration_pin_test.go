package policy

import (
	"fmt"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// TestCalibrationPinned pins the similarity bands both adaptive-ef
// callers fit on one seeded fixture: the offline core.CalibrateAdaptiveEF
// against given exact truth, and the serving policy's recalibration
// against its wide-ef reference answers. Both run the same band
// calibrator, so a change to it that moves one threshold or one ef fails
// here. The fixture is built per kernel arm (the arms round distances
// differently); an arm with no pin only logs what it got.
func TestCalibrationPinned(t *testing.T) {
	defer vec.SetSIMD(true)
	pinned := map[string]string{
		"avx2":   "offline [1.2799066 1.5487118] [40 40 50] serving [1.4581153 1.8361272] [40 70 40]",
		"scalar": "offline [1.2799065 1.5487118] [40 40 50] serving [1.4581152 1.8361272] [40 70 40]",
	}
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		d := dataset.Generate(dataset.Config{
			Name: "calibration-pin", N: 1200, NHist: 200, NTest: 160,
			Dim: 12, Clusters: 8, Metric: vec.L2,
			GapMagnitude: 2, ClusterStd: 0.2, QueryStdScale: 2, Seed: 21,
		})
		g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
		ix := core.New(g, core.Options{LEx: 16})

		calib := d.TestOOD.Slice(0, 60)
		offline := core.CalibrateAdaptiveEF(ix, d.History, calib,
			bruteforce.AllKNN(d.Base, calib, vec.L2, 10), core.AdaptiveConfig{})
		offTh, offEF := offline.Buckets()

		s := graph.NewSearcher(g)
		serving := NewAdaptive(d.TestOOD.Dim(), AdaptiveConfig{
			ReservoirSize: 160, Metric: vec.L2, Seed: 4,
		}, func(q []float32, k, ef int) []graph.Result {
			res, _ := s.SearchFrom(q, k, ef, g.EntryPoint)
			return res
		})
		for i := 0; i < d.TestOOD.Rows(); i++ {
			serving.Record(d.TestOOD.Row(i))
		}
		if !serving.MaybeRecalibrate(nil) {
			t.Fatal("serving calibration did not run")
		}
		srvTh, srvEF := serving.Buckets()

		got := fmt.Sprintf("offline %v %v serving %v %v", offTh, offEF, srvTh, srvEF)
		want, ok := pinned[vec.KernelName()]
		if !ok || want == "" {
			t.Logf("no pin for kernel %s: got %q", vec.KernelName(), got)
			continue
		}
		if got != want {
			t.Errorf("%s: bands %q, pinned %q", vec.KernelName(), got, want)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// TestCalibrationPinned pins the similarity bands CalibrateAdaptiveEF
// fits on one seeded fixture against exact truth, so a change to the
// band calibrator that moves one threshold or one ef fails here. The
// fixture is built per kernel arm (the arms round distances
// differently); an arm with no pin only logs what it got.
func TestCalibrationPinned(t *testing.T) {
	defer vec.SetSIMD(true)
	pinned := map[string]string{
		"avx2":   "offline [1.2799066 1.5487118] [40 40 50]",
		"scalar": "offline [1.2799065 1.5487118] [40 40 50]",
	}
	for _, simd := range []bool{false, true} {
		vec.SetSIMD(simd)
		d := dataset.Generate(dataset.Config{
			Name: "calibration-pin", N: 1200, NHist: 200, NTest: 160,
			Dim: 12, Clusters: 8, Metric: vec.L2,
			GapMagnitude: 2, ClusterStd: 0.2, QueryStdScale: 2, Seed: 21,
		})
		g := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
		ix := New(g, Options{LEx: 16})

		calib := d.TestOOD.Slice(0, 60)
		offline := CalibrateAdaptiveEF(ix, d.History, calib,
			bruteforce.AllKNN(d.Base, calib, vec.L2, 10), AdaptiveConfig{})
		offTh, offEF := offline.Buckets()

		got := fmt.Sprintf("offline %v %v", offTh, offEF)
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

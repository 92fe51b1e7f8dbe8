package core

import (
	"testing"

	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// Micro-benchmarks for the fixing primitives themselves (the exhibit
// benchmarks live in the repository root). Useful for spotting
// regressions in the EH closure and the NGFix edge loop.

func BenchmarkComputeEHK20(b *testing.B)  { benchComputeEH(b, 20) }
func BenchmarkComputeEHK50(b *testing.B)  { benchComputeEH(b, 50) }
func BenchmarkComputeEHK100(b *testing.B) { benchComputeEH(b, 100) }

func benchComputeEH(b *testing.B, k int) {
	g, _, nn := randWorld(42, 2*k+20, 8, 0.05)
	nn = nn[:2*k]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeEH(g, nn, k)
	}
}

func BenchmarkNGFixQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _, nn := randWorld(int64(i), 120, 8, 0.03)
		b.StartTimer()
		NGFix(g, nn[:60], NGFixParams{K: 30, KMax: 60, LEx: 48})
	}
}

func BenchmarkRFixQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, q, nn := randWorld(int64(i), 300, 8, 0.02)
		g.EntryPoint = g.Medoid()
		b.StartTimer()
		RFix(g, q, nn[:20], RFixParams{K: 20, L: 40, LEx: 48})
	}
}

// BenchmarkFixBatch is one fix batch as the serving layer runs it: 300
// history queries with 64-long approximate truth through the default
// two-round schedule (RFix on the first) on a fresh copy of a 4 000-row
// cosine HNSW graph. allocs/op counts the whole batch.
func BenchmarkFixBatch(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "fix-batch", N: 4000, NHist: 300, NTest: 1,
		Dim: 64, Clusters: 32, Metric: vec.Cosine,
		GapMagnitude: 2.0, ClusterStd: 0.2, QueryStdScale: 1.8,
		Normalize: true, Seed: 19,
	})
	base := hnsw.Build(d.Base, hnsw.Config{M: 16, EFConstruction: 100, Metric: vec.Cosine}).Bottom()
	truth := New(base, Options{}).ApproxTruth(d.History, 64, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := New(base.Clone(), Options{LEx: 48})
		b.StartTimer()
		ix.Fix(d.History, truth)
	}
}

// Workload drift and cold start: the §7 scenarios. The query distribution
// shifts after the index was fixed; the example shows (1) re-fixing with a
// handful of drifted queries after trimming old extra edges, and (2) the
// Gaussian query-augmentation trick that stretches a tiny real history.
package main

import (
	"fmt"

	"ngfix/internal/bruteforce"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

func recallOn(ix *core.Index, queries *vec.Matrix, gt [][]bruteforce.Neighbor) float64 {
	var sum float64
	for qi := 0; qi < queries.Rows(); qi++ {
		res, _ := ix.Search(queries.Row(qi), 10, 25)
		sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
	}
	return sum / float64(queries.Rows())
}

func main() {
	d := dataset.Generate(dataset.MainSearch(0.3))
	metric := d.Config.Metric
	h := hnsw.Build(d.Base, hnsw.DefaultConfig(metric))
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 30, RFix: true}, {K: 10}}, LEx: 48})
	ix.Fix(d.History, core.ExactTruth(d.Base, d.History, metric, 60))

	// The workload drifts: ~half the query concepts move.
	drifted := d.ShiftedQueries(300, 0.5, 404)
	driftGT := bruteforce.AllKNN(d.Base, drifted, metric, 10)
	fmt.Printf("recall@10 on drifted queries, index fixed for old workload: %.3f\n",
		recallOn(ix, drifted, driftGT))

	// Mitigation 1: trim 20% of old extra edges, re-fix with a small batch
	// of drifted queries (the paper's periodic-refresh strategy).
	repQ := d.ShiftedQueries(150, 0.5, 405) // representative drifted queries
	repTruth := core.ExactTruth(d.Base, repQ, metric, 60)
	ix.PartialRebuild(0.2, repQ, repTruth)
	fmt.Printf("after partial refresh with 150 drifted queries:        %.3f\n",
		recallOn(ix, drifted, driftGT))

	// Mitigation 2: cold start with very few real queries + augmentation.
	h2 := hnsw.Build(d.Base, hnsw.DefaultConfig(metric))
	cold := core.New(h2.Bottom(), core.Options{Rounds: []core.Round{{K: 30, RFix: true}, {K: 10}}, LEx: 48})
	few := d.ShiftedQueries(30, 0.5, 406)
	synth := core.AugmentQueries(few, 5, 0.3, d.Config.Normalize, 407)
	merged := vec.NewMatrix(0, d.Base.Dim())
	for i := 0; i < few.Rows(); i++ {
		merged.Append(few.Row(i))
	}
	for i := 0; i < synth.Rows(); i++ {
		merged.Append(synth.Row(i))
	}
	cold.Fix(merged, cold.ApproxTruth(merged, 60, 200))
	fmt.Printf("cold-start fix: 30 real + %d synthetic queries:        %.3f\n",
		synth.Rows(), recallOn(cold, drifted, driftGT))
}

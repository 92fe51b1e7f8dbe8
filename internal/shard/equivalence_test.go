package shard

import (
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// TestSingleShardExactEquivalence pins the compatibility contract: a
// one-shard group is the identity wrapper. Every search through the
// group returns bit-identical ids, distances, and stats to the bare
// fixer it wraps — same graph, same searcher, no merge in between.
func TestSingleShardExactEquivalence(t *testing.T) {
	d := testDataset(t)
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	mk := func() *core.OnlineFixer {
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
		return core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20})
	}
	bare := mk()
	grouped := Single(mk())

	for i := 0; i < d.TestOOD.Rows(); i++ {
		q := d.TestOOD.Row(i)
		want, wantSt := bare.Search(q, 10, 80)
		got, gotSt := grouped.SearchCtx(nil, q, 10, 80, 1)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results vs %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d result %d: %+v vs %+v", i, j, got[j], want[j])
			}
		}
		if gotSt != wantSt {
			t.Fatalf("query %d stats: %+v vs %+v", i, gotSt, wantSt)
		}
	}
}

// TestScatterGatherRecall checks the sharded search answers the same
// question as the unsharded one: recall@10 against brute-force truth
// stays within tolerance of the single-fixer baseline at every ef
// point. Scatter-gather is not bit-identical at N > 1 — each shard runs
// its own beam over its own (smaller) graph — but the merged global
// top-k must not cost meaningful recall.
func TestScatterGatherRecall(t *testing.T) {
	d := testDataset(t)
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2})
	ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
	baseline := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20})
	sharded := buildGroup(t, d, 4, core.OnlineConfig{BatchSize: 1 << 20})

	const k = 10
	truth := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, k)
	for _, ef := range []int{20, 40, 80} {
		var base, shard float64
		for i := 0; i < d.TestOOD.Rows(); i++ {
			q := d.TestOOD.Row(i)
			want := bruteforce.IDs(truth[i])

			res, _ := baseline.Search(q, k, ef)
			base += metrics.Recall(ids(res), want)

			sres, _ := sharded.SearchCtx(nil, q, k, ef, 4)
			shard += metrics.Recall(ids(sres), want)
		}
		base /= float64(d.TestOOD.Rows())
		shard /= float64(d.TestOOD.Rows())
		t.Logf("ef=%d: baseline recall %.3f, 4-shard recall %.3f", ef, base, shard)
		if shard < base-0.05 {
			t.Fatalf("ef=%d: 4-shard recall %.3f more than 0.05 below baseline %.3f", ef, shard, base)
		}
	}
}

func ids(res []graph.Result) []uint32 {
	out := make([]uint32, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}

package pq

import (
	"math/rand"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

func randomMatrix(seed int64, n, dim int) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			m.Row(i)[j] = float32(rng.NormFloat64())
		}
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	m := randomMatrix(1, 50, 10)
	if _, err := Train(m, Config{M: 3, KS: 8}); err == nil {
		t.Fatal("M not dividing dim accepted")
	}
	if _, err := Train(m, Config{M: 2, KS: 1000}); err == nil {
		t.Fatal("KS > 256 accepted")
	}
	q, err := Train(m, Config{M: 2, KS: 8})
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows() != 50 || q.M() != 2 || q.CodeBytes() != 100 {
		t.Fatalf("shape: rows=%d M=%d bytes=%d", q.Rows(), q.M(), q.CodeBytes())
	}
}

func TestEncodeDecodeReducesError(t *testing.T) {
	m := randomMatrix(2, 500, 16)
	coarse, err := Train(m, Config{M: 2, KS: 4, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Train(m, Config{M: 8, KS: 64, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	ce := coarse.QuantizationError(m)
	fe := fine.QuantizationError(m)
	if fe >= ce {
		t.Fatalf("finer codebook should reduce error: coarse %.4f, fine %.4f", ce, fe)
	}
	if fe <= 0 {
		t.Fatal("quantization error should be positive on random data")
	}
}

func TestADCMatchesDecodedDistance(t *testing.T) {
	m := randomMatrix(3, 200, 8)
	q, err := Train(m, Config{M: 4, KS: 16, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	query := m.Row(7)
	table := q.BuildTable(query)
	for i := 0; i < 20; i++ {
		adc := float64(q.ADC(table, i))
		want := float64(vec.L2Squared(query, q.Decode(i)))
		if diff := adc - want; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("row %d: ADC %.6f != decoded distance %.6f", i, adc, want)
		}
	}
}

func TestADCRankingQuality(t *testing.T) {
	m := randomMatrix(4, 800, 16)
	q, err := Train(m, Config{M: 8, KS: 64, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Top-10 by ADC should largely overlap the exact top-10.
	query := randomMatrix(5, 1, 16).Row(0)
	table := q.BuildTable(query)
	exact := bruteforce.KNN(m, vec.L2, query, 10, nil)
	type pr struct {
		id uint32
		d  float32
	}
	best := make([]pr, 0, 800)
	for i := 0; i < 800; i++ {
		best = append(best, pr{uint32(i), q.ADC(table, i)})
	}
	for a := 0; a < 30; a++ { // partial selection of top 30
		for b := a + 1; b < len(best); b++ {
			if best[b].d < best[a].d {
				best[a], best[b] = best[b], best[a]
			}
		}
	}
	top := map[uint32]bool{}
	for _, p := range best[:30] {
		top[p.id] = true
	}
	hit := 0
	for _, e := range exact {
		if top[e.ID] {
			hit++
		}
	}
	if hit < 6 {
		t.Fatalf("ADC top-30 contains only %d/10 exact NNs", hit)
	}
}

func TestGraphSearcherEndToEnd(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "pq-test", N: 1000, NHist: 50, NTest: 40,
		Dim: 16, Clusters: 8, Metric: vec.L2,
		GapMagnitude: 1.2, ClusterStd: 0.25, QueryStdScale: 1.4, Seed: 6,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 12, EFConstruction: 100, Metric: vec.L2})
	g := h.Bottom()
	q, err := Train(d.Base, Config{M: 8, KS: 64, Iters: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, 10)

	pqs := NewGraphSearcher(g, q)
	exact := graph.NewSearcher(g)
	var sumPQ, sumEx float64
	var ndcPQ, ndcEx int64
	for qi := 0; qi < d.TestOOD.Rows(); qi++ {
		query := d.TestOOD.Row(qi)
		rp, sp := pqs.Search(query, 10, 60)
		re, se := exact.Search(query, 10, 60)
		sumPQ += metrics.Recall(graph.IDs(rp), bruteforce.IDs(gt[qi]))
		sumEx += metrics.Recall(graph.IDs(re), bruteforce.IDs(gt[qi]))
		ndcPQ += sp.NDC
		ndcEx += se.NDC
		for i := 1; i < len(rp); i++ {
			if rp[i].Dist < rp[i-1].Dist {
				t.Fatal("PQ results not ascending after rerank")
			}
		}
	}
	n := float64(d.TestOOD.Rows())
	recallPQ, recallEx := sumPQ/n, sumEx/n
	if recallPQ < recallEx-0.1 {
		t.Fatalf("PQ-guided recall %.3f too far below exact %.3f", recallPQ, recallEx)
	}
	if ndcPQ >= ndcEx {
		t.Fatalf("PQ search should need fewer full-precision distances: %d vs %d", ndcPQ, ndcEx)
	}
	t.Logf("recall@10: exact-guided %.3f (NDC %d), ADC-guided %.3f (full-precision NDC %d)",
		recallEx, ndcEx/int64(n), recallPQ, ndcPQ/int64(n))
}

func TestGraphSearcherSkipsDeleted(t *testing.T) {
	m := randomMatrix(7, 100, 8)
	h := hnsw.Build(m, hnsw.Config{M: 8, EFConstruction: 40, Metric: vec.L2})
	g := h.Bottom()
	g.MarkDeleted(5)
	q, err := Train(m, Config{M: 4, KS: 16, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewGraphSearcher(g, q)
	res, _ := s.Search(m.Row(5), 10, 40)
	for _, r := range res {
		if r.ID == 5 {
			t.Fatal("deleted id returned")
		}
	}
}

func TestNewGraphSearcherMismatchPanics(t *testing.T) {
	m := randomMatrix(8, 20, 8)
	q, _ := Train(m, Config{M: 4, KS: 8, Iters: 3})
	g := graph.New(randomMatrix(9, 30, 8), vec.L2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewGraphSearcher(g, q)
}

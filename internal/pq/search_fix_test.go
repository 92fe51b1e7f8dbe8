package pq

import (
	"bytes"
	"context"
	"math"
	"sort"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// TestEFBoundsBeam is the regression test for the historical searcher
// bug: the result heap was bounded at rerank = max(4·k, ef), so the beam
// was always rerank-wide and lowering ef bought nothing. With the beam
// bounded at ef proper, navigation cost (hops, ADC lookups) must shrink
// monotonically as ef drops, while the rerank NDC stays pinned to the
// pool size, not ef.
func TestEFBoundsBeam(t *testing.T) {
	m := randomMatrix(21, 2000, 16)
	h := hnsw.Build(m, hnsw.Config{M: 12, EFConstruction: 100, Metric: vec.L2})
	g := h.Bottom()
	q, err := Train(m, Config{M: 8, KS: 64, Iters: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewGraphSearcher(g, q)
	const k = 10
	efs := []int{160, 80, 40, 20, 10}
	queries := randomMatrix(22, 20, 16)

	var prevHops, prevADC, prevNDC int64
	for i, ef := range efs {
		var hops, adc, ndc int64
		for qi := 0; qi < queries.Rows(); qi++ {
			_, st := s.Search(queries.Row(qi), k, ef)
			hops += int64(st.Hops)
			adc += st.ADCLookups
			ndc += st.NDC
		}
		if i > 0 {
			if hops > prevHops || adc > prevADC {
				t.Fatalf("ef=%d costs more than ef=%d: hops %d > %d or ADC %d > %d — ef is not bounding the beam",
					ef, efs[i-1], hops, prevHops, adc, prevADC)
			}
			if ndc > prevNDC {
				t.Fatalf("rerank NDC grew as ef dropped: %d > %d", ndc, prevNDC)
			}
		}
		prevHops, prevADC, prevNDC = hops, adc, ndc
	}
	// Monotone non-increasing point-to-point, and strictly cheaper across
	// the full sweep: a no-op ef would hold all counts flat.
	var hopsMax, hopsMin int64
	for qi := 0; qi < queries.Rows(); qi++ {
		_, stWide := s.Search(queries.Row(qi), k, efs[0])
		hopsMax += int64(stWide.Hops)
		_, stNarrow := s.Search(queries.Row(qi), k, efs[len(efs)-1])
		hopsMin += int64(stNarrow.Hops)
	}
	if hopsMin >= hopsMax {
		t.Fatalf("ef sweep did not change navigation cost (hops %d at ef=%d vs %d at ef=%d)",
			hopsMin, efs[len(efs)-1], hopsMax, efs[0])
	}
}

// TestRerankPoolIndependentOfEF pins the other half of the fix: the
// rerank pool depth tracks Rerank (default 4·k), not ef, so a narrow
// beam still reranks a full candidate pool.
func TestRerankPoolIndependentOfEF(t *testing.T) {
	m := randomMatrix(23, 1500, 16)
	h := hnsw.Build(m, hnsw.Config{M: 12, EFConstruction: 100, Metric: vec.L2})
	g := h.Bottom()
	q, err := Train(m, Config{M: 8, KS: 64, Iters: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := NewGraphSearcher(g, q)
	const k = 10
	query := randomMatrix(24, 1, 16).Row(0)
	_, stNarrow := s.Search(query, k, k) // ef = k, well under 4·k
	if stNarrow.NDC != 4*k {
		t.Fatalf("rerank NDC=%d at ef=%d, want the full pool of %d", stNarrow.NDC, k, 4*k)
	}
	s.Rerank = 7 * k
	_, stWide := s.Search(query, k, k)
	if stWide.NDC != 7*k {
		t.Fatalf("rerank NDC=%d with Rerank=%d, want %d", stWide.NDC, 7*k, 7*k)
	}
}

func TestSearchCtxTruncates(t *testing.T) {
	m := randomMatrix(25, 1200, 16)
	h := hnsw.Build(m, hnsw.Config{M: 10, EFConstruction: 80, Metric: vec.L2})
	g := h.Bottom()
	q, err := Train(m, Config{M: 8, KS: 32, Iters: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := NewGraphSearcher(g, q)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, st := s.SearchCtx(ctx, m.Row(0), 10, 200)
	if !st.Truncated {
		t.Fatal("cancelled PQ search did not report truncation")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("truncated results not sorted")
		}
	}
	// Uncancelled context: never truncated.
	_, st = s.SearchCtx(context.Background(), m.Row(0), 10, 60)
	if st.Truncated {
		t.Fatal("live context reported truncation")
	}
}

func TestDefaultConfigRejectsPrimeDim(t *testing.T) {
	if _, err := DefaultConfig(13); err == nil {
		t.Fatal("DefaultConfig(13) should refuse the M=1 degeneration")
	}
	cfg, err := DefaultConfig(96)
	if err != nil || cfg.M != 8 {
		t.Fatalf("DefaultConfig(96) = %+v, %v; want M=8", cfg, err)
	}
	cfg, err = DefaultConfig(14)
	if err != nil || cfg.M != 7 {
		t.Fatalf("DefaultConfig(14) = %+v, %v; want M=7", cfg, err)
	}
	if fb := DefaultOrScalarConfig(13); fb.M != 1 {
		t.Fatalf("DefaultOrScalarConfig(13).M = %d, want the documented 1", fb.M)
	}
}

func TestAppendRowMatchesBatchEncode(t *testing.T) {
	m := randomMatrix(26, 300, 16)
	q, err := Train(m, Config{M: 4, KS: 32, Iters: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	extra := randomMatrix(27, 5, 16)
	// Reference: encode directly with the trained codebooks.
	want := make([]byte, q.M())
	scratch := make([]float32, q.Config().KS)
	for i := 0; i < extra.Rows(); i++ {
		q.encodeInto(extra.Row(i), want, scratch)
		q.AppendRow(extra.Row(i))
		got := q.Code(q.Rows() - 1)
		if !bytes.Equal(got, want) {
			t.Fatalf("row %d: AppendRow code %v != direct encode %v", i, got, want)
		}
	}
	if q.Rows() != 305 || q.CodeBytes() != 305*4 {
		t.Fatalf("shape after appends: rows=%d bytes=%d", q.Rows(), q.CodeBytes())
	}
}

// TestScoreIDsMatchesADC pins the batch scorer to ADC bit for bit, on
// both kernel arms, for every batch length around the kernel's four-row
// groups, at the serving shape's M and KS and at narrower tables.
func TestScoreIDsMatchesADC(t *testing.T) {
	defer vec.SetSIMD(true)
	for _, cfg := range []Config{{M: 16, KS: 256, Iters: 2, Seed: 1}, {M: 12, KS: 7, Iters: 2, Seed: 2}, {M: 3, KS: 64, Iters: 2, Seed: 3}} {
		m := randomMatrix(26, 600, 48)
		q, err := Train(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := tableScorer{q: q}
		ts.prepare(randomMatrix(27, 1, 48).Row(0))
		for n := 0; n <= 26; n++ {
			vec.SetSIMD(n%2 == 0)
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32((i*97 + n*31) % q.Rows())
			}
			out := make([]float32, n+1)
			out[n] = -1
			ts.ScoreIDs(ids, out[:n])
			for i, id := range ids {
				if want := q.ADC(ts.t, int(id)); math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Fatalf("M=%d n=%d: ScoreIDs[%d] = %v, ADC = %v", cfg.M, n, i, out[i], want)
				}
			}
			if out[n] != -1 {
				t.Fatalf("M=%d n=%d: wrote past out[n-1]", cfg.M, n)
			}
		}
	}
}

// TestRerankMatchesMetricDistance checks that the fused search's exact
// rerank — row norms from the graph's cache, rows from the tier — returns
// the distances and order Metric.Distance gives on the same pool.
func TestRerankMatchesMetricDistance(t *testing.T) {
	m := randomMatrix(28, 1500, 32)
	m.NormalizeRows()
	g := hnsw.Build(m, hnsw.Config{M: 10, EFConstruction: 60, Metric: vec.Cosine}).Bottom()
	q, err := Train(m, Config{M: 8, KS: 32, Iters: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := NewGraphSearcher(g, q)
	s.Tier = MatrixTier{M: m.Clone()}
	ref := NewGraphSearcher(g, q)
	queries := randomMatrix(29, 25, 32)
	for qi := 0; qi < queries.Rows(); qi++ {
		query := queries.Row(qi)
		got, st := s.Search(query, 10, 40)
		ref.ts.prepare(query)
		pool, _ := ref.s.SearchScoredPoolCtx(nil, &ref.ts, 40, 40, g.EntryPoint)
		var want []graph.Result
		for _, c := range pool {
			want = append(want, graph.Result{ID: c.ID, Dist: g.Metric.Distance(query, m.Row(int(c.ID)))})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
		want = want[:min(10, len(want))]
		if st.NDC != int64(len(pool)) || len(got) != len(want) {
			t.Fatalf("query %d: %d results / %d rerank NDC, want %d / %d", qi, len(got), st.NDC, len(want), len(pool))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("query %d rank %d: %+v, Metric.Distance gives %+v", qi, i, got[i], want[i])
			}
		}
	}
}

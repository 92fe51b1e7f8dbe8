package graph

import (
	"math/rand"
	"testing"

	"ngfix/internal/vec"
)

// exactScorer drives the scored seam with true distances, so the scored
// beam must walk exactly the same vertices as the full-precision beam —
// the equivalence that pins the seam's loop to SearchFromCtx's.
type exactScorer struct {
	g *Graph
	q []float32
}

func (s *exactScorer) ScoreIDs(ids []uint32, out []float32) {
	for i, id := range ids {
		out[i] = s.g.Metric.Distance(s.q, s.g.Vectors.Row(int(id)))
	}
}

func TestScoredBeamMatchesExactBeam(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New(randomVectors(rng, 300, 8), vec.L2)
	for i := 0; i < 300; i++ {
		for n := 0; n < 6; n++ {
			g.AddBaseEdge(uint32(i), uint32(rng.Intn(300)))
		}
	}
	g.MarkDeleted(17)
	g.MarkDeleted(42)

	q := randomVectors(rng, 1, 8).Row(0)
	k, L := 10, 40
	exact, est := NewSearcher(g).SearchFrom(q, k, L, g.EntryPoint)

	sc := exactScorer{g: g, q: q}
	pool, sst := NewSearcher(g).SearchScoredPoolCtx(nil, &sc, L, L, g.EntryPoint)

	if sst.NDC != 0 {
		t.Fatalf("scored search reported NDC=%d, want 0 (no full-precision work)", sst.NDC)
	}
	if sst.ADCLookups != est.NDC {
		t.Fatalf("ADCLookups=%d, want the exact beam's NDC=%d (same vertices scored)", sst.ADCLookups, est.NDC)
	}
	if sst.Hops != est.Hops {
		t.Fatalf("hops differ: scored %d, exact %d", sst.Hops, est.Hops)
	}
	if len(pool) < len(exact) {
		t.Fatalf("pool (%d) smaller than exact results (%d)", len(pool), len(exact))
	}
	for i, r := range exact {
		if pool[i].ID != r.ID || pool[i].Dist != r.Dist {
			t.Fatalf("pool[%d] = %v, exact[%d] = %v", i, pool[i], i, r)
		}
	}
	for _, p := range pool {
		if g.IsDeleted(p.ID) {
			t.Fatalf("deleted vertex %d in rerank pool", p.ID)
		}
	}
}

func TestScoredBeamPoolIndependentOfBeam(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := New(randomVectors(rng, 400, 8), vec.L2)
	for i := 0; i < 400; i++ {
		for n := 0; n < 6; n++ {
			g.AddBaseEdge(uint32(i), uint32(rng.Intn(400)))
		}
	}
	q := randomVectors(rng, 1, 8).Row(0)
	sc := exactScorer{g: g, q: q}

	// A wide pool must not widen the beam: the navigation cost with
	// pool=200 must equal the cost with pool=10 at the same L.
	_, narrow := NewSearcher(g).SearchScoredPoolCtx(nil, &sc, 20, 10, g.EntryPoint)
	wide, wideSt := NewSearcher(g).SearchScoredPoolCtx(nil, &sc, 20, 200, g.EntryPoint)
	if narrow.Hops != wideSt.Hops || narrow.ADCLookups != wideSt.ADCLookups {
		t.Fatalf("pool size changed navigation: hops %d vs %d, lookups %d vs %d",
			narrow.Hops, wideSt.Hops, narrow.ADCLookups, wideSt.ADCLookups)
	}
	for i := 1; i < len(wide); i++ {
		if wide[i].Dist < wide[i-1].Dist {
			t.Fatal("pool not sorted ascending")
		}
	}
}

func TestScoredBeamTruncates(t *testing.T) {
	g := chainGraph(t, 400)
	q := []float32{390, 0}
	sc := exactScorer{g: g, q: q}
	ctx := &countErrCtx{failAfter: 2}
	pool, st := NewSearcher(g).SearchScoredPoolCtx(ctx, &sc, 8, 8, 0)
	if !st.Truncated {
		t.Fatal("cancelled scored search did not report truncation")
	}
	if st.Hops >= 400 {
		t.Fatalf("cancelled search still walked the whole chain (%d hops)", st.Hops)
	}
	if len(pool) == 0 {
		t.Fatal("truncated search returned no partial results")
	}
}

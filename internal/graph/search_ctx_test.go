package graph

import (
	"context"
	"testing"

	"ngfix/internal/vec"
)

// chainGraph builds a bidirectional path 0-1-2-...-(n-1) over grid
// vectors, so a search from vertex 0 toward the far end must walk the
// whole chain hop by hop — the worst case a deadline has to interrupt.
func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(gridVectors(t, n), vec.L2)
	for i := 0; i+1 < n; i++ {
		g.AddBaseEdge(uint32(i), uint32(i+1))
		g.AddBaseEdge(uint32(i+1), uint32(i))
	}
	return g
}

// countErrCtx is a context whose Err starts failing after a fixed number
// of polls — a deterministic stand-in for a deadline firing mid-search.
type countErrCtx struct {
	context.Context
	polls     int
	failAfter int
}

func (c *countErrCtx) Err() error {
	c.polls++
	if c.polls > c.failAfter {
		return context.Canceled
	}
	return nil
}

func TestSearchCtxMatchesPlainSearch(t *testing.T) {
	g := chainGraph(t, 200)
	q := []float32{150, 0}
	s1, s2 := NewSearcher(g), NewSearcher(g)
	plain, pst := s1.SearchFrom(q, 5, 8, 0)
	ctxed, cst := s2.SearchFromCtx(context.Background(), q, 5, 8, 0)
	if pst.Truncated || cst.Truncated {
		t.Fatalf("uncancelled search reported truncation: %+v %+v", pst, cst)
	}
	if len(plain) != len(ctxed) {
		t.Fatalf("result count differs: %d vs %d", len(plain), len(ctxed))
	}
	for i := range plain {
		if plain[i] != ctxed[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, plain[i], ctxed[i])
		}
	}
}

func TestSearchCancelledMidwayReturnsPartial(t *testing.T) {
	g := chainGraph(t, 2000)
	q := []float32{1999, 0}
	s := NewSearcher(g)
	_, full := s.SearchFrom(q, 3, 4, 0)
	if full.Hops < 4*cancelCheckEvery {
		t.Fatalf("chain walk too short to test cancellation: %d hops", full.Hops)
	}

	// Fail on the second poll: the search gets one check window of hops,
	// then must stop where it stands.
	cc := &countErrCtx{Context: context.Background(), failAfter: 1}
	res, st := s.SearchFromCtx(cc, q, 3, 4, 0)
	if !st.Truncated {
		t.Fatal("mid-search cancellation not reported as Truncated")
	}
	if st.Hops > 2*cancelCheckEvery {
		t.Fatalf("cancelled search kept walking: %d hops (check cadence %d)", st.Hops, cancelCheckEvery)
	}
	if len(res) == 0 {
		t.Fatal("truncated search returned no partial results")
	}
	// Partial results are still sorted ascending.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("partial results not ascending")
		}
	}
}

func TestSearchAlreadyCancelledStopsImmediately(t *testing.T) {
	g := chainGraph(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSearcher(g)
	res, st := s.SearchFromCtx(ctx, []float32{400, 0}, 3, 8, 0)
	if !st.Truncated {
		t.Fatal("pre-cancelled search not reported as Truncated")
	}
	if st.Hops != 0 {
		t.Fatalf("pre-cancelled search expanded %d hops, want 0", st.Hops)
	}
	// The entry point was evaluated before the loop, so it may be the one
	// (partial) answer — but nothing beyond it.
	if len(res) > 1 {
		t.Fatalf("pre-cancelled search returned %d results", len(res))
	}
}

// TestAppendSearchReusesBuffer: AppendSearch appends exactly what
// SearchFromCtx returns after whatever dst already holds, and a caller
// that hands the same buffer back allocates nothing per search.
func TestAppendSearchReusesBuffer(t *testing.T) {
	g := chainGraph(t, 200)
	s := NewSearcher(g)
	q := []float32{120.3, 0}
	want, wantSt := s.SearchFromCtx(nil, q, 10, 32, 0)
	prefix := []Result{{ID: 7, Dist: 1}}
	got, st := s.AppendSearch(nil, prefix, q, 10, 32, 0)
	if st != wantSt || len(got) != len(want)+1 || got[0] != prefix[0] {
		t.Fatalf("appended %v (stats %+v), want %v after %v (stats %+v)", got, st, want, prefix, wantSt)
	}
	for i, r := range want {
		if got[i+1] != r {
			t.Fatalf("result %d: %v, want %v", i, got[i+1], r)
		}
	}
	buf := make([]Result, 0, 10)
	if n := testing.AllocsPerRun(20, func() { buf, _ = s.AppendSearch(nil, buf[:0], q, 10, 32, 0) }); n != 0 {
		t.Fatalf("%.1f allocations per search into a reused buffer, want 0", n)
	}
	if empty, _ := NewSearcher(New(vec.NewMatrix(0, 2), vec.L2)).AppendSearch(nil, prefix, q, 10, 32, 0); len(empty) != 1 {
		t.Fatalf("empty graph: %v, want dst unchanged", empty)
	}
}

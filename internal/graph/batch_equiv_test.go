package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ngfix/internal/minheap"
	"ngfix/internal/vec"
)

// referenceSearchFrom is a verbatim copy of the seed (pre-batching)
// SearchFromCtx hot loop: per-neighbor expand closure, one distance
// evaluation at a time through a DistanceCounter. The batched loop must
// return byte-identical results (IDs, order, distances) and identical
// stats on every graph, under whichever kernel set is active — it
// evaluates the same distances on the same pairs in the same order, just
// grouped into batch calls.
func referenceSearchFrom(g *Graph, q []float32, k, L int, entry uint32, collect bool) ([]Result, Stats, []Result) {
	if g.Len() == 0 {
		return nil, Stats{}, nil
	}
	if L < k {
		L = k
	}
	var st Stats
	visited := minheap.NewVisited(g.Len())
	cand := minheap.NewMin(256)
	results := minheap.NewBounded(L)
	var collected []Result

	dc := vec.DistanceCounter{Metric: g.Metric}
	entryDist := dc.Distance(q, g.Vectors.Row(int(entry)))
	visited.Visit(entry)
	if collect {
		collected = append(collected, Result{ID: entry, Dist: entryDist})
	}
	cand.Push(minheap.Item{ID: entry, Dist: entryDist})
	if !g.deleted[entry] {
		results.Push(minheap.Item{ID: entry, Dist: entryDist})
	}

	for cand.Len() > 0 {
		cur := cand.Pop()
		if worst, ok := results.MaxDist(); ok && results.Full() && cur.Dist > worst {
			break
		}
		st.Hops++
		expand := func(v uint32) {
			if visited.Visit(v) {
				return
			}
			d := dc.Distance(q, g.Vectors.Row(int(v)))
			if collect {
				collected = append(collected, Result{ID: v, Dist: d})
			}
			if results.WouldAccept(d) {
				cand.Push(minheap.Item{ID: v, Dist: d})
				if !g.deleted[v] {
					results.Push(minheap.Item{ID: v, Dist: d})
				}
			}
		}
		for _, v := range g.BaseNeighbors(cur.ID) {
			expand(v)
		}
		for _, e := range g.ExtraNeighbors(cur.ID) {
			expand(e.To)
		}
	}
	st.NDC = dc.Count

	items := results.SortedAscending()
	if len(items) > k {
		items = items[:k]
	}
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Dist: it.Dist}
	}
	return out, st, collected
}

// referenceScoredPool is the compressed-scoring beam as it was written
// before the one beam loop: the seed loop's two heaps plus a third bounded
// heap that every scored live vertex is pushed into for the rerank. The
// Beam must walk the same vertices and return the same pool.
func referenceScoredPool(g *Graph, sc Scorer, L, pool int, entry uint32) ([]Result, Stats) {
	if g.Len() == 0 {
		return nil, Stats{}
	}
	L, pool = max(L, 1), max(pool, 1)
	var st Stats
	visited := minheap.NewVisited(g.Len())
	cand := minheap.NewMin(256)
	results := minheap.NewBounded(L)
	rerank := minheap.NewBounded(pool)

	var entryDist [1]float32
	sc.ScoreIDs([]uint32{entry}, entryDist[:])
	st.ADCLookups++
	visited.Visit(entry)
	cand.Push(minheap.Item{ID: entry, Dist: entryDist[0]})
	if !g.deleted[entry] {
		results.Push(minheap.Item{ID: entry, Dist: entryDist[0]})
		rerank.Push(minheap.Item{ID: entry, Dist: entryDist[0]})
	}
	for cand.Len() > 0 {
		cur := cand.Pop()
		if worst, ok := results.MaxDist(); ok && results.Full() && cur.Dist > worst {
			break
		}
		st.Hops++
		var ids []uint32
		for _, v := range g.BaseNeighbors(cur.ID) {
			if !visited.Visit(v) {
				ids = append(ids, v)
			}
		}
		for _, e := range g.ExtraNeighbors(cur.ID) {
			if !visited.Visit(e.To) {
				ids = append(ids, e.To)
			}
		}
		dists := make([]float32, len(ids))
		sc.ScoreIDs(ids, dists)
		st.ADCLookups += int64(len(ids))
		for i, v := range ids {
			d := dists[i]
			if !g.deleted[v] {
				rerank.Push(minheap.Item{ID: v, Dist: d})
			}
			if results.WouldAccept(d) {
				cand.Push(minheap.Item{ID: v, Dist: d})
				if !g.deleted[v] {
					results.Push(minheap.Item{ID: v, Dist: d})
				}
			}
		}
	}
	var out []Result
	for _, it := range rerank.SortedAscending() {
		out = append(out, Result{ID: it.ID, Dist: it.Dist})
	}
	return out, st
}

// buildRandomGraph makes a reproducible messy graph: random vectors,
// random base out-edges, random EH-tagged extra edges, and a sprinkling
// of tombstones.
func buildRandomGraph(t *testing.T, seed int64, n, dim int, met vec.Metric) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = rng.Float32()*2 - 1
		}
	}
	g := New(m, met)
	for u := 0; u < n; u++ {
		deg := 2 + rng.Intn(8)
		for d := 0; d < deg; d++ {
			g.AddBaseEdge(uint32(u), uint32(rng.Intn(n)))
		}
		if rng.Intn(3) == 0 {
			for d := 0; d < 1+rng.Intn(4); d++ {
				g.AddExtraEdge(uint32(u), uint32(rng.Intn(n)), uint16(rng.Intn(100)))
			}
		}
	}
	for u := 0; u < n/10; u++ {
		g.MarkDeleted(uint32(rng.Intn(n)))
	}
	return g
}

// TestBatchedSearchMatchesSeed asserts fixed-seed byte-identity between
// the batched SearchFromCtx and the seed implementation across metrics,
// search-list sizes, CollectVisited, tombstones — on both dispatch arms.
func TestBatchedSearchMatchesSeed(t *testing.T) {
	arms := []bool{false}
	if vec.SIMDAvailable() {
		arms = append(arms, true)
	}
	defer vec.SetSIMD(true)
	for _, simd := range arms {
		vec.SetSIMD(simd)
		name := "scalar"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			for _, met := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
				g := buildRandomGraph(t, 1000+int64(met), 500, 17, met)
				s := NewSearcher(g)
				rng := rand.New(rand.NewSource(77))
				for qi := 0; qi < 40; qi++ {
					q := make([]float32, 17)
					for j := range q {
						q[j] = rng.Float32()*2 - 1
					}
					k := 1 + rng.Intn(20)
					L := k + rng.Intn(40)
					entry := uint32(rng.Intn(g.Len()))
					collect := qi%3 == 0

					s.CollectVisited = collect
					got, gotSt := s.SearchFrom(q, k, L, entry)
					gotVisited := append([]Result(nil), s.Visited...)
					want, wantSt, wantVisited := referenceSearchFrom(g, q, k, L, entry, collect)

					if len(got) != len(want) {
						t.Fatalf("%s q%d: %d results, want %d", met, qi, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s q%d result %d: %+v != %+v", met, qi, i, got[i], want[i])
						}
					}
					if gotSt != wantSt {
						t.Fatalf("%s q%d stats: %+v != %+v", met, qi, gotSt, wantSt)
					}
					if collect {
						if len(gotVisited) != len(wantVisited) {
							t.Fatalf("%s q%d visited: %d != %d", met, qi, len(gotVisited), len(wantVisited))
						}
						for i := range gotVisited {
							if gotVisited[i] != wantVisited[i] {
								t.Fatalf("%s q%d visited %d: %+v != %+v", met, qi, i, gotVisited[i], wantVisited[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchedSearchEmptyAndTiny covers the degenerate shapes the batch
// gather must not trip on: empty graph, single vertex, vertex with no
// out-edges.
func TestBatchedSearchEmptyAndTiny(t *testing.T) {
	empty := New(vec.NewMatrix(0, 4), vec.L2)
	s := NewSearcher(empty)
	if res, st := s.Search([]float32{1, 2, 3, 4}, 5, 10); res != nil || st.NDC != 0 {
		t.Fatalf("empty graph: %v %+v", res, st)
	}

	one := New(vec.MatrixFromRows([][]float32{{1, 2, 3, 4}}), vec.L2)
	s = NewSearcher(one)
	res, st := s.Search([]float32{1, 2, 3, 4}, 1, 10)
	if len(res) != 1 || res[0].ID != 0 || st.NDC != 1 {
		t.Fatalf("single vertex: %v %+v", res, st)
	}
}

// randomGraph is buildRandomGraph with a chosen tombstone share: every
// vertex is tombstoned with probability dead (1 tombstones them all).
func randomGraph(seed int64, n, dim int, met vec.Metric, dead float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := range m.Data() {
		m.Data()[i] = rng.Float32()*2 - 1
	}
	g := New(m, met)
	for u := 0; u < n; u++ {
		for d := 2 + rng.Intn(10); d > 0; d-- {
			g.AddBaseEdge(uint32(u), uint32(rng.Intn(n)))
		}
		if rng.Intn(3) == 0 {
			for d := 1 + rng.Intn(4); d > 0; d-- {
				g.AddExtraEdge(uint32(u), uint32(rng.Intn(n)), uint16(rng.Intn(100)))
			}
		}
	}
	for u := 0; u < n; u++ {
		if dead >= 1 || rng.Float64() < dead {
			g.MarkDeleted(uint32(u))
		}
	}
	return g
}

// sortedResults orders results by (Dist, ID), the order ties are compared
// in: the heaps leave equal distances in arbitrary order.
func sortedResults(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Dist < out[j].Dist || out[i].Dist == out[j].Dist && out[i].ID < out[j].ID
	})
	return out
}

// checkBeamAgainstReference runs one query through both public beam entry
// points and their heap-based references and fails on any difference in
// results (sorted by (dist, id)), NDC, ADC lookups, hops or — for the
// full-precision path — the order vertices were scored in.
func checkBeamAgainstReference(t *testing.T, g *Graph, s *Searcher, q []float32, k, L, pool int, entry uint32) {
	t.Helper()
	s.CollectVisited = true
	got, gotSt := s.SearchFrom(q, k, L, entry)
	gotVisited := append([]Result(nil), s.Visited...)
	s.CollectVisited = false
	want, wantSt, wantVisited := referenceSearchFrom(g, q, k, L, entry, true)
	if !slices.Equal(sortedResults(got), sortedResults(want)) || gotSt != wantSt || !slices.Equal(gotVisited, wantVisited) {
		t.Fatalf("%s k=%d L=%d entry=%d: full precision\n got %v %+v\nwant %v %+v", g.Metric, k, L, entry, got, gotSt, want, wantSt)
	}

	sc := &exactScorer{g: g, q: q}
	gotPool, gotPSt := s.SearchScoredPoolCtx(nil, sc, L, pool, entry)
	wantPool, wantPSt := referenceScoredPool(g, sc, L, pool, entry)
	if !slices.Equal(sortedResults(gotPool), sortedResults(wantPool)) || gotPSt != wantPSt {
		t.Fatalf("%s L=%d pool=%d entry=%d: scored\n got %v %+v\nwant %v %+v", g.Metric, L, pool, entry, gotPool, gotPSt, wantPool, wantPSt)
	}
}

// TestBeamMatchesReference pins the one beam loop to the heap loops it
// replaced, on every metric and kernel arm, with no, some, most and all
// vertices tombstoned, at beam widths from 1 to past the live count, and
// with rerank pools narrower than, equal to and wider than the beam.
func TestBeamMatchesReference(t *testing.T) {
	arms := []bool{false}
	if vec.SIMDAvailable() {
		arms = append(arms, true)
	}
	defer vec.SetSIMD(true)
	const n, dim, k = 400, 17, 10
	for _, simd := range arms {
		vec.SetSIMD(simd)
		for _, met := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
			for _, dead := range []float64{0, 0.1, 0.9, 1} {
				g := randomGraph(int64(met)*10+int64(dead*10), n, dim, met, dead)
				s := NewSearcher(g)
				rng := rand.New(rand.NewSource(5))
				for _, L := range []int{1, k, 64, 200} {
					for _, pool := range []int{max(L/2, 1), L, 2*L + 3} {
						for qi := 0; qi < 3; qi++ {
							q := make([]float32, dim)
							for j := range q {
								q[j] = rng.Float32()*2 - 1
							}
							checkBeamAgainstReference(t, g, s, q, k, L, pool, uint32(rng.Intn(n)))
						}
					}
				}
			}
		}
	}
}

// TestBeamTiesKeepPushOrder pins the tie rule the heaps' strict admission
// implies (duplicate rows are where it shows): equal distances keep the
// order they were pushed in, within a hop and across hops, and a full
// beam turns away a newcomer that only ties its last entry.
func TestBeamTiesKeepPushOrder(t *testing.T) {
	var b Beam
	b.Reset(3, 4)
	b.Push([]uint32{7, 3, 9}, []float32{2, 1, 2}, nil)
	b.Push([]uint32{5, 1}, []float32{2, 1}, nil)
	var got []uint32
	for _, x := range b.Entries() {
		got = append(got, x.ID())
	}
	if want := []uint32{3, 1, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("entries %v, want %v (ties in push order, 5 turned away at the bound)", got, want)
	}
	if id, _ := b.Next(); id != 3 {
		t.Fatalf("first expansion %d, want 3", id)
	}
}

// FuzzBeamEquivalence runs the same comparison on random small graphs:
// the fuzzer picks the graph's seed, size, dimension, metric, tombstone
// share, k, L, pool and entry.
func FuzzBeamEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(4), uint8(0), uint8(0), uint8(5), uint8(20), uint8(40), uint8(0))
	f.Add(int64(2), uint8(200), uint8(13), uint8(2), uint8(25), uint8(10), uint8(64), uint8(8), uint8(7))
	f.Add(int64(3), uint8(9), uint8(8), uint8(1), uint8(255), uint8(1), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nB, dimB, metB, deadB, kB, lB, poolB, entryB uint8) {
		n := int(nB)%200 + 1
		dim := int(dimB)%24 + 4 // a few coordinates keep exact distance ties improbable
		met := vec.Metric(metB % 3)
		dead := float64(deadB) / 255
		g := randomGraph(seed, n, dim, met, dead)
		rng := rand.New(rand.NewSource(seed))
		q := make([]float32, dim)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		k := int(kB)%20 + 1
		checkBeamAgainstReference(t, g, NewSearcher(g), q, k, int(lB)%250+1, int(poolB)%250+1, uint32(int(entryB)%n))
	})
}

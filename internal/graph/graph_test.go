package graph

import (
	"math"
	"math/rand"
	"testing"

	"ngfix/internal/vec"
)

func gridVectors(t *testing.T, n int) *vec.Matrix {
	t.Helper()
	m := vec.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Row(i)[0] = float32(i)
		m.Row(i)[1] = 0
	}
	return m
}

func randomVectors(rng *rand.Rand, n, dim int) *vec.Matrix {
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	return m
}

func TestGraphEdgeOps(t *testing.T) {
	g := New(gridVectors(t, 5), vec.L2)
	if !g.AddBaseEdge(0, 1) || g.AddBaseEdge(0, 1) {
		t.Fatal("AddBaseEdge dedup broken")
	}
	if g.AddBaseEdge(2, 2) {
		t.Fatal("self loop accepted")
	}
	if !g.AddExtraEdge(0, 2, 7) {
		t.Fatal("AddExtraEdge failed")
	}
	if g.AddExtraEdge(0, 1, 3) {
		t.Fatal("extra edge duplicating base edge accepted")
	}
	// Re-adding an extra edge with higher EH raises the tag.
	if !g.AddExtraEdge(0, 2, 9) {
		t.Fatal("EH raise not reported")
	}
	if g.AddExtraEdge(0, 2, 4) {
		t.Fatal("EH lower should be a no-op")
	}
	if g.ExtraNeighbors(0)[0].EH != 9 {
		t.Fatalf("EH = %d, want 9", g.ExtraNeighbors(0)[0].EH)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 2 || g.ExtraDegree(0) != 1 {
		t.Fatalf("degree = %d/%d", g.Degree(0), g.ExtraDegree(0))
	}
	if !g.RemoveExtraEdge(0, 2) || g.RemoveExtraEdge(0, 2) {
		t.Fatal("RemoveExtraEdge wrong")
	}
	b, e := g.EdgeCount()
	if b != 1 || e != 0 {
		t.Fatalf("EdgeCount = %d,%d", b, e)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(gridVectors(t, 3), vec.L2)
	g.base[0] = []uint32{0}
	if err := g.Validate(); err == nil {
		t.Fatal("self loop not caught")
	}
	g.base[0] = []uint32{1, 1}
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate not caught")
	}
	g.base[0] = []uint32{7}
	if err := g.Validate(); err == nil {
		t.Fatal("out of range not caught")
	}
	g.base[0] = []uint32{1}
	g.extra[0] = []ExtraEdge{{To: 1, EH: 0}}
	if err := g.Validate(); err == nil {
		t.Fatal("cross-segment duplicate not caught")
	}
}

func TestDeleteTracking(t *testing.T) {
	g := New(gridVectors(t, 4), vec.L2)
	if !g.MarkDeleted(2) || g.MarkDeleted(2) {
		t.Fatal("MarkDeleted idempotence broken")
	}
	if g.Live() != 3 || g.DeletedCount() != 1 || !g.IsDeleted(2) {
		t.Fatal("deletion counters wrong")
	}
	g.Undelete(2)
	if g.Live() != 4 || g.IsDeleted(2) {
		t.Fatal("Undelete broken")
	}
}

func TestMedoid(t *testing.T) {
	// Points at 0,1,2,3,4 on a line: centroid is 2, medoid must be index 2.
	g := New(gridVectors(t, 5), vec.L2)
	if m := g.Medoid(); m != 2 {
		t.Fatalf("Medoid = %d, want 2", m)
	}
	g.MarkDeleted(2)
	// Centroid of remaining {0,1,3,4} is 2; nearest live is 1 or 3.
	if m := g.Medoid(); m != 1 && m != 3 {
		t.Fatalf("Medoid after delete = %d, want 1 or 3", m)
	}
}

func TestAppendVertex(t *testing.T) {
	g := New(gridVectors(t, 2), vec.L2)
	id := g.AppendVertex([]float32{9, 9})
	if id != 2 || g.Len() != 3 {
		t.Fatalf("AppendVertex id=%d len=%d", id, g.Len())
	}
	if g.Vectors.Row(2)[0] != 9 {
		t.Fatal("vector not stored")
	}
}

func TestSearchLineGraph(t *testing.T) {
	// Chain 0-1-2-...-9 (bidirectional). Query near 7.5: NNs are 7,8.
	g := New(gridVectors(t, 10), vec.L2)
	for i := uint32(0); i < 9; i++ {
		g.AddBaseEdge(i, i+1)
		g.AddBaseEdge(i+1, i)
	}
	g.EntryPoint = 0
	s := NewSearcher(g)
	res, st := s.Search([]float32{7.4, 0}, 2, 10)
	if len(res) != 2 || res[0].ID != 7 || res[1].ID != 8 {
		t.Fatalf("Search = %v", res)
	}
	if st.NDC == 0 || st.Hops == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
	// Results must be in ascending distance.
	if res[0].Dist > res[1].Dist {
		t.Fatal("results not sorted")
	}
}

func TestSearchSkipsDeleted(t *testing.T) {
	g := New(gridVectors(t, 10), vec.L2)
	for i := uint32(0); i < 9; i++ {
		g.AddBaseEdge(i, i+1)
		g.AddBaseEdge(i+1, i)
	}
	g.MarkDeleted(7)
	s := NewSearcher(g)
	res, _ := s.SearchFrom([]float32{7.1, 0}, 3, 10, 0)
	for _, r := range res {
		if r.ID == 7 {
			t.Fatal("deleted vertex returned")
		}
	}
	if len(res) != 3 {
		t.Fatalf("want 3 live results, got %d", len(res))
	}
}

func TestSearchCollectVisited(t *testing.T) {
	g := New(gridVectors(t, 6), vec.L2)
	for i := uint32(0); i < 5; i++ {
		g.AddBaseEdge(i, i+1)
		g.AddBaseEdge(i+1, i)
	}
	s := NewSearcher(g)
	s.CollectVisited = true
	_, st := s.SearchFrom([]float32{5, 0}, 1, 6, 0)
	if int64(len(s.Visited)) != st.NDC {
		t.Fatalf("visited %d entries, NDC %d — must match", len(s.Visited), st.NDC)
	}
	seen := map[uint32]bool{}
	for _, v := range s.Visited {
		if seen[v.ID] {
			t.Fatal("vertex visited twice")
		}
		seen[v.ID] = true
	}
}

func TestSearchEmptyGraph(t *testing.T) {
	g := New(vec.NewMatrix(0, 2), vec.L2)
	s := NewSearcher(g)
	res, st := s.Search([]float32{0, 0}, 3, 5)
	if res != nil || st.NDC != 0 {
		t.Fatal("empty graph search should return nothing")
	}
}

// On a complete graph, beam search with L >= k is exact.
func TestSearchCompleteGraphExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomVectors(rng, 60, 8)
	g := New(m, vec.L2)
	for i := uint32(0); i < 60; i++ {
		for j := uint32(0); j < 60; j++ {
			if i != j {
				g.AddBaseEdge(i, j)
			}
		}
	}
	s := NewSearcher(g)
	for trial := 0; trial < 10; trial++ {
		q := make([]float32, 8)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		res, _ := s.Search(q, 5, 10)
		// brute force
		type pair struct {
			id uint32
			d  float32
		}
		best := pair{0, math.MaxFloat32}
		for i := 0; i < 60; i++ {
			if d := vec.L2Squared(q, m.Row(i)); d < best.d {
				best = pair{uint32(i), d}
			}
		}
		if res[0].ID != best.id {
			t.Fatalf("trial %d: top1 = %d, want %d", trial, res[0].ID, best.id)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(gridVectors(t, 4), vec.L2)
	g.AddBaseEdge(0, 1)
	g.AddExtraEdge(1, 2, 5)
	g.MarkDeleted(3)
	c := g.Clone()
	c.AddBaseEdge(0, 2)
	c.Vectors.Row(0)[0] = 99
	c.Undelete(3)
	if len(g.BaseNeighbors(0)) != 1 || g.Vectors.Row(0)[0] != 0 || !g.IsDeleted(3) {
		t.Fatal("Clone shares state")
	}
	if len(c.ExtraNeighbors(1)) != 1 {
		t.Fatal("Clone lost extra edges")
	}
}

func TestRNGPrune(t *testing.T) {
	// Pivot at origin; candidates at 1 and 1.5 on the same ray: the closer
	// one occludes the farther. A third point in another direction is kept.
	m := vec.MatrixFromRows([][]float32{
		{0, 0},   // 0 pivot
		{1, 0},   // 1
		{1.5, 0}, // 2 occluded by 1
		{0, 1},   // 3 different direction
	})
	cands := []Candidate{
		{ID: 1, Dist: vec.L2Squared(m.Row(0), m.Row(1))},
		{ID: 2, Dist: vec.L2Squared(m.Row(0), m.Row(2))},
		{ID: 3, Dist: vec.L2Squared(m.Row(0), m.Row(3))},
	}
	SortCandidates(cands)
	kept := RNGPrune(m, vec.L2, cands, 10)
	if len(kept) != 2 || kept[0].ID != 1 || kept[1].ID != 3 {
		t.Fatalf("RNGPrune kept %v", kept)
	}
	// Degree cap.
	kept = RNGPrune(m, vec.L2, cands, 1)
	if len(kept) != 1 || kept[0].ID != 1 {
		t.Fatalf("capped RNGPrune kept %v", kept)
	}
}

// TestRNGPruneNormsMatchesMetricDistance pins that the prepared-distancer
// occlusion test (with or without a norm cache) keeps exactly what the
// plain Metric.Distance rule keeps, on every metric and both kernel arms.
func TestRNGPruneNormsMatchesMetricDistance(t *testing.T) {
	defer vec.SetSIMD(true)
	rng := rand.New(rand.NewSource(9))
	m := randomVectors(rng, 120, 24)
	norms := vec.RowNorms(m)
	for _, simd := range []bool{true, false} {
		vec.SetSIMD(simd)
		for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.InnerProduct} {
			var cands []Candidate
			for i := 1; i < m.Rows(); i++ {
				cands = append(cands, Candidate{ID: uint32(i), Dist: metric.Distance(m.Row(0), m.Row(i))})
			}
			SortCandidates(cands)
			var want []Candidate
			for _, c := range cands {
				occluded := false
				for _, s := range want {
					if metric.Distance(m.Row(int(s.ID)), m.Row(int(c.ID))) < c.Dist {
						occluded = true
						break
					}
				}
				if !occluded {
					want = append(want, c)
				}
			}
			for _, cache := range [][]float32{norms, nil} {
				got := RNGPruneNorms(m, metric, cache, cands, len(cands))
				if len(got) != len(want) {
					t.Fatalf("%s/%v: kept %d, reference rule keeps %d", vec.KernelName(), metric, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%v: kept[%d] = %v, reference %v", vec.KernelName(), metric, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestTauPruneKeepsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomVectors(rng, 40, 4)
	var cands []Candidate
	for i := 1; i < 40; i++ {
		cands = append(cands, Candidate{ID: uint32(i), Dist: vec.L2Squared(m.Row(0), m.Row(i))})
	}
	SortCandidates(cands)
	rng0 := RNGPrune(m, vec.L2, cands, 64)
	tau := TauPrune(m, vec.L2, cands, 64, 0)
	if len(tau) != len(rng0) {
		t.Fatalf("TauPrune(0) kept %d, RNGPrune kept %d — must match", len(tau), len(rng0))
	}
	tauBig := TauPrune(m, vec.L2, cands, 64, 0.5)
	if len(tauBig) < len(rng0) {
		t.Fatalf("TauPrune(0.5) kept %d < RNG %d — positive tau must keep at least as many", len(tauBig), len(rng0))
	}
}

func TestAnglePrune(t *testing.T) {
	// Pivot at origin; two candidates 30° apart and one at 90°.
	m := vec.MatrixFromRows([][]float32{
		{0, 0},
		{1, 0},
		{float32(math.Cos(math.Pi / 6)), float32(math.Sin(math.Pi / 6))}, // 30° from #1
		{0, 1}, // 90°
	})
	cands := []Candidate{
		{ID: 1, Dist: 1},
		{ID: 2, Dist: 1},
		{ID: 3, Dist: 1},
	}
	kept := AnglePrune(m, 0, cands, 10, math.Pi/3)
	if len(kept) != 2 || kept[0].ID != 1 || kept[1].ID != 3 {
		t.Fatalf("AnglePrune kept %v, want ids 1 and 3", kept)
	}
	// Pivot duplicate and zero-direction candidates are skipped.
	cands = append([]Candidate{{ID: 0, Dist: 0}}, cands...)
	kept = AnglePrune(m, 0, cands, 10, math.Pi/3)
	if len(kept) != 2 {
		t.Fatalf("AnglePrune with pivot in candidates kept %v", kept)
	}
}

func TestBruteKNNGraph(t *testing.T) {
	g := gridVectors(t, 6) // line: neighbors of i are i±1 first
	knn := BruteKNNGraph(g, vec.L2, 2)
	if knn.K != 2 {
		t.Fatal("K not recorded")
	}
	for i := 0; i < 6; i++ {
		nbrs := knn.Neighbors[i]
		if len(nbrs) != 2 {
			t.Fatalf("row %d has %d neighbors", i, len(nbrs))
		}
		for _, nb := range nbrs {
			if nb.ID == uint32(i) {
				t.Fatal("self in kNN list")
			}
			if d := int(nb.ID) - i; d > 2 || d < -2 {
				t.Fatalf("row %d neighbor %d too far", i, nb.ID)
			}
		}
		if nbrs[0].Dist > nbrs[1].Dist {
			t.Fatal("kNN not ascending")
		}
	}
}

func TestApproxKNNGraphMatchesBruteOnCompleteGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomVectors(rng, 50, 4)
	g := New(m, vec.L2)
	for i := uint32(0); i < 50; i++ {
		for j := uint32(0); j < 50; j++ {
			if i != j {
				g.AddBaseEdge(i, j)
			}
		}
	}
	brute := BruteKNNGraph(m, vec.L2, 3)
	approx := ApproxKNNGraph(g, 3, 20)
	for i := 0; i < 50; i++ {
		if len(approx.Neighbors[i]) != 3 {
			t.Fatalf("row %d: %d approx neighbors", i, len(approx.Neighbors[i]))
		}
		if approx.Neighbors[i][0].ID != brute.Neighbors[i][0].ID {
			t.Fatalf("row %d: approx top1 %d, brute %d", i, approx.Neighbors[i][0].ID, brute.Neighbors[i][0].ID)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(gridVectors(t, 6), vec.L2)
	g.AddBaseEdge(0, 1)
	g.AddBaseEdge(1, 2)
	g.AddExtraEdge(2, 0, 1)
	g.AddBaseEdge(2, 5) // 5 outside the NN set: dropped
	sg := InducedSubgraph(g, []uint32{0, 1, 2})
	if sg.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d, want 3", sg.EdgeCount())
	}
	if !sg.StronglyConnected() {
		t.Fatal("cycle 0→1→2→0 should be strongly connected")
	}
	if sg.AvgReachable() != 3 {
		t.Fatalf("AvgReachable = %v, want 3", sg.AvgReachable())
	}
	// Remove the back edge: 0 reaches all 3, 1 reaches 2, 2 reaches 1.
	g.RemoveExtraEdge(2, 0)
	sg = InducedSubgraph(g, []uint32{0, 1, 2})
	if sg.StronglyConnected() {
		t.Fatal("should not be strongly connected")
	}
	if got, want := sg.AvgReachable(), (3.0+2.0+1.0)/3.0; got != want {
		t.Fatalf("AvgReachable = %v, want %v", got, want)
	}
}

func TestSubgraphEmpty(t *testing.T) {
	g := New(gridVectors(t, 3), vec.L2)
	sg := InducedSubgraph(g, nil)
	if sg.AvgReachable() != 0 || sg.EdgeCount() != 0 {
		t.Fatal("empty subgraph metrics wrong")
	}
}

func TestSizeBytesGrowsWithEdges(t *testing.T) {
	g := New(gridVectors(t, 10), vec.L2)
	before := g.SizeBytes()
	g.AddBaseEdge(0, 1)
	g.AddExtraEdge(0, 2, 1)
	after := g.SizeBytes()
	if after != before+4+6 {
		t.Fatalf("SizeBytes delta = %d, want 10", after-before)
	}
}

func TestAvgDegree(t *testing.T) {
	g := New(gridVectors(t, 4), vec.L2)
	g.AddBaseEdge(0, 1)
	g.AddBaseEdge(0, 2)
	g.AddExtraEdge(1, 2, 0)
	if got := g.AvgDegree(); got != 0.75 {
		t.Fatalf("AvgDegree = %v, want 0.75", got)
	}
	g.MarkDeleted(3)
	if got := g.AvgDegree(); got != 1.0 {
		t.Fatalf("AvgDegree after delete = %v, want 1", got)
	}
}

func TestTrackExtraMutations(t *testing.T) {
	g := New(gridVectors(t, 6), vec.L2)
	g.AddExtraEdge(5, 4, 1) // before tracking: not recorded
	g.TrackExtraMutations()
	g.AddExtraEdge(0, 1, 3)
	g.AddExtraEdge(0, 1, 2) // no change: lower EH
	g.AddExtraEdge(0, 1, 7) // EH raise counts as a change
	g.AddExtraEdge(2, 3, 1)
	g.RemoveExtraEdge(2, 3)
	g.RemoveExtraEdge(4, 0) // absent edge: no change
	g.SetExtraNeighbors(3, nil)
	dirty := g.TakeExtraMutations()
	want := []uint32{0, 2, 3}
	if len(dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	for i := range want {
		if dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}
	if got := g.TakeExtraMutations(); got != nil {
		t.Fatalf("second Take returned %v, want nil", got)
	}
	g.AddExtraEdge(1, 2, 1) // tracking stopped: must not panic or record
}

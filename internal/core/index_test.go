package core

import (
	"bytes"
	"math"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// testWorkload builds a small cross-modal dataset and an HNSW base graph.
func testWorkload(t testing.TB) (*dataset.Dataset, *graph.Graph) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "core-test", N: 1200, NHist: 400, NTest: 80,
		Dim: 12, Clusters: 10, Metric: vec.L2,
		GapMagnitude: 1.8, ClusterStd: 0.2, QueryStdScale: 1.7,
		Seed: 21,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 80, Metric: vec.L2})
	return d, h.Bottom()
}

func meanRecall(t testing.TB, search metrics.SearchFunc, queries *vec.Matrix, gt [][]bruteforce.Neighbor, k, ef int) float64 {
	t.Helper()
	var sum float64
	for qi := 0; qi < queries.Rows(); qi++ {
		res, _ := search(queries.Row(qi), k, ef)
		sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi])[:k])
	}
	return sum / float64(queries.Rows())
}

// The headline behavior: fixing with historical OOD queries improves
// recall on *unseen* OOD test queries at the same search budget.
func TestFixImprovesOODRecall(t *testing.T) {
	d, g := testWorkload(t)
	unfixed := g.Clone()

	ix := New(g, Options{Rounds: []Round{{K: 20, RFix: true}, {K: 10}}, LEx: 32})
	truth := ExactTruth(d.Base, d.History, vec.L2, 40)
	rep := ix.Fix(d.History, truth)
	if rep.NGFixEdges == 0 {
		t.Fatal("fixing added no edges on an OOD workload")
	}
	if err := ix.G.Validate(); err != nil {
		t.Fatal(err)
	}

	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, 10)
	sUnfixed := graph.NewSearcher(unfixed)
	before := meanRecall(t, func(q []float32, k, ef int) ([]graph.Result, graph.Stats) {
		return sUnfixed.SearchFrom(q, k, ef, unfixed.EntryPoint)
	}, d.TestOOD, gt, 10, 20)
	after := meanRecall(t, ix.Search, d.TestOOD, gt, 10, 20)
	if after <= before {
		t.Fatalf("recall did not improve: before %.3f, after %.3f", before, after)
	}
	t.Logf("OOD recall@10 (ef=20): unfixed %.3f → fixed %.3f (+%d edges)", before, after, rep.NGFixEdges+rep.RFixEdges)
}

// Fixing with OOD queries must not hurt ID queries (Figure 10's claim).
func TestFixDoesNotHurtIDQueries(t *testing.T) {
	d, g := testWorkload(t)
	unfixed := g.Clone()
	ix := New(g, Options{Rounds: []Round{{K: 20, RFix: true}}, LEx: 32})
	ix.Fix(d.History, ExactTruth(d.Base, d.History, vec.L2, 40))

	gt := bruteforce.AllKNN(d.Base, d.TestID, vec.L2, 10)
	sUnfixed := graph.NewSearcher(unfixed)
	before := meanRecall(t, func(q []float32, k, ef int) ([]graph.Result, graph.Stats) {
		return sUnfixed.SearchFrom(q, k, ef, unfixed.EntryPoint)
	}, d.TestID, gt, 10, 30)
	after := meanRecall(t, ix.Search, d.TestID, gt, 10, 30)
	if after < before-0.02 {
		t.Fatalf("ID recall regressed: before %.3f, after %.3f", before, after)
	}
}

// Figure 13(a): approximate-NN preprocessing matches exact within noise.
func TestApproxTruthNearlyMatchesExact(t *testing.T) {
	d, g := testWorkload(t)
	gExact := g.Clone()

	ixApprox := New(g, Options{Rounds: []Round{{K: 20}}, LEx: 32})
	approx := ixApprox.ApproxTruth(d.History, 40, 200)
	ixApprox.Fix(d.History, approx)

	ixExact := New(gExact, Options{Rounds: []Round{{K: 20}}, LEx: 32})
	ixExact.Fix(d.History, ExactTruth(d.Base, d.History, vec.L2, 40))

	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, 10)
	rA := meanRecall(t, ixApprox.Search, d.TestOOD, gt, 10, 30)
	rE := meanRecall(t, ixExact.Search, d.TestOOD, gt, 10, 30)
	if rA < rE-0.05 {
		t.Fatalf("approx preprocessing lost too much: approx %.3f vs exact %.3f", rA, rE)
	}
	t.Logf("recall@10: approx-NN fix %.3f, exact-NN fix %.3f", rA, rE)
}

func TestFixReportAccounting(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15, RFix: true}}, LEx: 32})
	truth := ExactTruth(d.Base, d.History, vec.L2, 30)
	rep := ix.Fix(d.History, truth)
	if rep.Queries != d.History.Rows() {
		t.Fatalf("Queries = %d", rep.Queries)
	}
	if len(rep.PerQueryEdges) != rep.Queries {
		t.Fatal("PerQueryEdges length mismatch")
	}
	sum := 0
	for _, e := range rep.PerQueryEdges {
		if e < 0 {
			t.Fatal("negative per-query edges")
		}
		sum += e
	}
	if sum != rep.NGFixEdges+rep.RFixEdges {
		t.Fatalf("per-query edges sum %d != totals %d", sum, rep.NGFixEdges+rep.RFixEdges)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
	// Extra degree bound holds globally after a full fix.
	for u := 0; u < ix.G.Len(); u++ {
		if d := ix.G.ExtraDegree(uint32(u)); d > 32 {
			t.Fatalf("vertex %d extra degree %d > LEx", u, d)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Rounds) != 2 || o.Rounds[0].K != 30 || !o.Rounds[0].RFix || o.Rounds[1].K != 10 {
		t.Fatalf("default rounds = %+v", o.Rounds)
	}
	if o.LEx != 64 || o.RFixL != 100 || o.InsertM != 16 || o.InsertEF != 200 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestInsertAndPartialRebuild(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32, InsertM: 8, InsertEF: 60})
	truth := ExactTruth(d.Base, d.History, vec.L2, 30)
	ix.Fix(d.History, truth)

	// Insert 10% new points drawn from the base distribution.
	newPts := d.MoreQueries(120, false, 77)
	for i := 0; i < newPts.Rows(); i++ {
		ix.Insert(newPts.Row(i))
	}
	if ix.G.Len() != 1320 {
		t.Fatalf("len after inserts = %d", ix.G.Len())
	}
	if err := ix.G.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inserted points are findable.
	found := 0
	for i := 0; i < newPts.Rows(); i++ {
		res, _ := ix.Search(newPts.Row(i), 1, 30)
		if len(res) > 0 && vec.L2Squared(ix.G.Vectors.Row(int(res[0].ID)), newPts.Row(i)) == 0 {
			found++
		}
	}
	if found < 110 {
		t.Fatalf("only %d/120 inserted points findable", found)
	}

	// Partial rebuild with a sample of history.
	sample := d.History.Slice(0, 100)
	sampleTruth := ExactTruth(ix.G.Vectors, sample, vec.L2, 30)
	_, extraBefore := ix.G.EdgeCount()
	rep := ix.PartialRebuild(0.2, sample, sampleTruth)
	if rep.Queries != 100 {
		t.Fatalf("rebuild queries = %d", rep.Queries)
	}
	if err := ix.G.Validate(); err != nil {
		t.Fatal(err)
	}
	_, extraAfter := ix.G.EdgeCount()
	if extraAfter == 0 && extraBefore > 0 {
		t.Fatal("partial rebuild wiped all extra edges")
	}
	// Quality after rebuild: test queries still well served.
	gt := bruteforce.AllKNN(ix.G.Vectors, d.TestOOD, vec.L2, 10)
	r := meanRecall(t, ix.Search, d.TestOOD, gt, 10, 40)
	if r < 0.8 {
		t.Fatalf("post-rebuild recall@10 = %.3f", r)
	}
}

// insertAllocCeiling is the allocations one Index.Insert makes at the
// default InsertM 16 / InsertEF 200, measured on testWorkload: the new
// row's out-list, the RNG prunes' kept lists, and the growth of the
// vector matrix and of the lists linked back to. The planning and
// commit buffers are the index's own and cost nothing per insert; each
// new insert allocated them afresh, 10 allocations and 4.5 KB in all.
const insertAllocCeiling = 5

func TestInsertAllocs(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{})
	i := 0
	next := func() { ix.Insert(d.History.Row(i % d.History.Rows())); i++ }
	for range 50 { // grow the index's buffers to steady state
		next()
	}
	if n := testing.AllocsPerRun(200, next); n > insertAllocCeiling {
		t.Fatalf("%.0f allocations per insert (ceiling %d)", n, insertAllocCeiling)
	}
	if err := ix.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAndPurge(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	ix.Fix(d.History, ExactTruth(d.Base, d.History, vec.L2, 30))

	// Delete 15% of points.
	nDel := 180
	for i := 0; i < nDel; i++ {
		if !ix.Delete(uint32(i * 5)) {
			t.Fatalf("delete %d failed", i*5)
		}
	}
	if ix.Delete(0) {
		t.Fatal("double delete should return false")
	}
	if got := ix.DeletedFraction(); math.Abs(got-float64(nDel)/1200) > 1e-9 {
		t.Fatalf("DeletedFraction = %v", got)
	}
	// Lazy phase: deleted never returned.
	res, _ := ix.Search(ix.G.Vectors.Row(0), 10, 50)
	for _, r := range res {
		if ix.G.IsDeleted(r.ID) {
			t.Fatal("deleted point returned during lazy phase")
		}
	}

	rep := ix.PurgeAndRepair(15, 120)
	if rep.Purged != nDel {
		t.Fatalf("Purged = %d, want %d", rep.Purged, nDel)
	}
	if rep.EdgesRemoved == 0 {
		t.Fatal("no edges removed")
	}
	if err := ix.G.Validate(); err != nil {
		t.Fatal(err)
	}
	// No surviving edge touches a tombstone.
	for u := 0; u < ix.G.Len(); u++ {
		uu := uint32(u)
		if ix.G.IsDeleted(uu) {
			if len(ix.G.BaseNeighbors(uu)) != 0 || len(ix.G.ExtraNeighbors(uu)) != 0 {
				t.Fatal("tombstone kept out-edges")
			}
			continue
		}
		for _, v := range ix.G.BaseNeighbors(uu) {
			if ix.G.IsDeleted(v) {
				t.Fatal("live vertex points at tombstone")
			}
		}
		for _, e := range ix.G.ExtraNeighbors(uu) {
			if ix.G.IsDeleted(e.To) {
				t.Fatal("live vertex extra-points at tombstone")
			}
		}
	}
	// Post-purge quality on live points.
	gt := make([][]bruteforce.Neighbor, d.TestOOD.Rows())
	for qi := 0; qi < d.TestOOD.Rows(); qi++ {
		gt[qi] = bruteforce.KNN(d.Base, vec.L2, d.TestOOD.Row(qi), 10, func(id uint32) bool { return ix.G.IsDeleted(id) })
	}
	r := meanRecall(t, ix.Search, d.TestOOD, gt, 10, 40)
	if r < 0.75 {
		t.Fatalf("post-purge recall@10 = %.3f", r)
	}
	// Purge with nothing to do is a no-op.
	rep = ix.PurgeAndRepair(15, 120)
	if rep.Purged != 0 || rep.EdgesRemoved != 0 {
		t.Fatalf("second purge did work: %+v", rep)
	}
}

func TestAugmentQueries(t *testing.T) {
	d, _ := testWorkload(t)
	src := d.History.Slice(0, 10)
	aug := AugmentQueries(src, 3, 0.3, false, 5)
	if aug.Rows() != 30 || aug.Dim() != src.Dim() {
		t.Fatalf("augmented shape %dx%d", aug.Rows(), aug.Dim())
	}
	// Expected perturbation norm ≈ sigma.
	var meanShift float64
	for i := 0; i < 10; i++ {
		for p := 0; p < 3; p++ {
			meanShift += math.Sqrt(float64(vec.L2Squared(src.Row(i), aug.Row(i*3+p))))
		}
	}
	meanShift /= 30
	if meanShift < 0.15 || meanShift > 0.45 {
		t.Fatalf("mean perturbation %v, want ≈ 0.3", meanShift)
	}
	// Normalized variant stays on the sphere.
	normd := AugmentQueries(src, 2, 0.3, true, 6)
	for i := 0; i < normd.Rows(); i++ {
		if n := vec.Norm(normd.Row(i)); math.Abs(float64(n)-1) > 1e-5 {
			t.Fatalf("row norm %v", n)
		}
	}
	// Determinism.
	again := AugmentQueries(src, 3, 0.3, false, 5)
	if again.Row(0)[0] != aug.Row(0)[0] {
		t.Fatal("augmentation not deterministic")
	}
}

func TestFixPlusAddsCoverage(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32})
	sample := d.History.Slice(0, 40)
	rep := ix.FixPlus(sample, 3, 0.1, 100, 9)
	if rep.Queries != 40 || rep.Perturbed != 120 {
		t.Fatalf("FixPlus accounting: %+v", rep)
	}
	if rep.EdgesAdded == 0 {
		t.Fatal("FixPlus added nothing on an OOD workload")
	}
	if err := ix.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15, RFix: true}}, LEx: 32})
	ix.Fix(d.History.Slice(0, 100), ExactTruth(d.Base, d.History.Slice(0, 100), vec.L2, 30))
	ix.Delete(7)

	var buf bytes.Buffer
	if err := ix.G.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.G.Len() || loaded.EntryPoint != ix.G.EntryPoint || !loaded.IsDeleted(7) {
		t.Fatal("metadata mismatch after round trip")
	}
	b1, e1 := ix.G.EdgeCount()
	b2, e2 := loaded.EdgeCount()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("edge counts differ: %d/%d vs %d/%d", b1, e1, b2, e2)
	}
	// Identical search results.
	s1 := graph.NewSearcher(ix.G)
	s2 := graph.NewSearcher(loaded)
	for qi := 0; qi < 20; qi++ {
		q := d.TestOOD.Row(qi)
		r1, _ := s1.SearchFrom(q, 10, 30, ix.G.EntryPoint)
		r2, _ := s2.SearchFrom(q, 10, 30, loaded.EntryPoint)
		if len(r1) != len(r2) {
			t.Fatal("result length mismatch")
		}
		for i := range r1 {
			if r1[i].ID != r2[i].ID {
				t.Fatal("result ids differ after round trip")
			}
		}
	}
}

func TestGraphReadRejectsGarbage(t *testing.T) {
	if _, err := graph.Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short input accepted")
	}
	var buf bytes.Buffer
	buf.Write(bytes.Repeat([]byte{0xFF}, 64))
	if _, err := graph.Read(&buf); err == nil {
		t.Fatal("garbage accepted")
	}
}

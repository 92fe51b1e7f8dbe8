package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ngfix/internal/bitset"
	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// refComputeEH is ComputeEH as it was before the fix pass got reusable
// scratch: a rank map, a freshly allocated closure matrix, and for every
// new neighbour a rescan of all earlier neighbours' out-lists for edges
// into it. fixScratch.computeEH must return the same matrix.
func refComputeEH(g *graph.Graph, nn []uint32, k int) *EHResult {
	kmax := len(nn)
	if k > kmax {
		k = kmax
	}
	res := &EHResult{K: k, KMax: kmax, EH: make([][]uint16, k)}
	for i := range res.EH {
		res.EH[i] = make([]uint16, k)
		for j := range res.EH[i] {
			if i != j {
				res.EH[i][j] = InfEH
			}
		}
	}
	if k == 0 {
		return res
	}
	local := make(map[uint32]int, kmax)
	for i, id := range nn {
		local[id] = i
	}
	R := bitset.NewMatrix(kmax)
	for i := 0; i < kmax; i++ {
		R.Set(i, i)
	}
	remaining := k*k - k
	for m := 0; m < kmax && remaining > 0; m++ {
		u := nn[m]
		addDirected := func(from, to uint32) {
			fi, ok1 := local[from]
			ti, ok2 := local[to]
			if ok1 && ok2 && fi <= m && ti <= m {
				R.Set(fi, ti)
			}
		}
		for _, v := range g.BaseNeighbors(u) {
			addDirected(u, v)
		}
		for _, e := range g.ExtraNeighbors(u) {
			addDirected(u, e.To)
		}
		for i := 0; i < m; i++ {
			w := nn[i]
			for _, v := range g.BaseNeighbors(w) {
				if v == u {
					R.Set(i, m)
				}
			}
			for _, e := range g.ExtraNeighbors(w) {
				if e.To == u {
					R.Set(i, m)
				}
			}
		}
		R.RelaxThrough(m)
		for i := 0; i < k && i <= m; i++ {
			for j := 0; j < k && j <= m; j++ {
				if i != j && res.EH[i][j] == InfEH && R.Test(i, j) {
					res.EH[i][j] = uint16(m + 1)
					remaining--
				}
			}
		}
	}
	return res
}

// refNGFix is NGFix as it was before the fix pass got reusable scratch: a
// [][]bool closure, a freshly allocated candidate slice sorted with
// sort.Slice, and every distance through Metric.Distance.
func refNGFix(g *graph.Graph, nn []uint32, params NGFixParams) NGFixStats {
	p := params.withDefaults()
	if len(nn) > p.KMax {
		nn = nn[:p.KMax]
	}
	k := min(p.K, len(nn))
	var st NGFixStats
	if k < 2 {
		st.FullyReachable = true
		return st
	}
	eh := refComputeEH(g, nn, k)
	st.PairsAboveDelta = eh.CountAbove(p.Delta)
	D := make([][]bool, k)
	remaining := 0
	for i := range D {
		D[i] = make([]bool, k)
		for j := range D[i] {
			D[i][j] = i == j || eh.EH[i][j] <= p.Delta
			if !D[i][j] {
				remaining++
			}
		}
	}
	if remaining == 0 {
		st.FullyReachable = true
		return st
	}
	type pair struct {
		i, j int
		d    float32
	}
	cands := make([]pair, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		ri := g.Vectors.Row(int(nn[i]))
		for j := i + 1; j < k; j++ {
			cands = append(cands, pair{i, j, g.Metric.Distance(ri, g.Vectors.Row(int(nn[j])))})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	propagate := func(i, j int) {
		for x := 0; x < k; x++ {
			if !D[x][i] {
				continue
			}
			for y := 0; y < k; y++ {
				if D[j][y] && !D[x][y] {
					D[x][y] = true
					remaining--
				}
			}
		}
	}
	tag := func(i, j int) uint16 {
		if v := eh.EH[i][j]; v != InfEH {
			return v
		}
		return InfEH - 1
	}
	for _, c := range cands {
		if remaining == 0 {
			break
		}
		needFwd, needBwd := !D[c.i][c.j], !D[c.j][c.i]
		if !needFwd && !needBwd {
			continue
		}
		if needFwd && addExtraWithBudget(g, nn[c.i], nn[c.j], tag(c.i, c.j), p, &st) {
			propagate(c.i, c.j)
		}
		if remaining == 0 {
			break
		}
		if needBwd && !D[c.j][c.i] && addExtraWithBudget(g, nn[c.j], nn[c.i], tag(c.j, c.i), p, &st) {
			propagate(c.j, c.i)
		}
	}
	st.FullyReachable = remaining == 0
	return st
}

// refFix is Index.Fix with every NGFix application through refNGFix.
func refFix(ix *Index, queries *vec.Matrix, truth [][]bruteforce.Neighbor) FixReport {
	rep := FixReport{Queries: queries.Rows(), PerQueryEdges: make([]int, queries.Rows())}
	for qi := 0; qi < queries.Rows(); qi++ {
		nn := bruteforce.IDs(truth[qi])
		var qr QueryFixReport
		qr.RFixReached = true
		for _, r := range ix.opts.Rounds {
			st := refNGFix(ix.G, nn, NGFixParams{
				K: r.K, KMax: r.KMax, Delta: r.Delta,
				LEx: ix.opts.LEx, Prune: ix.opts.Prune, Rng: ix.rng,
			})
			qr.NGFixEdges += st.EdgesAdded
			qr.NGFixPruned += st.EdgesPruned
			qr.DefectivePairs += st.PairsAboveDelta
			if r.RFix {
				rst := rfix(ix.G, ix.s, new(fixScratch), queries.Row(qi), nn, RFixParams{K: r.K, L: ix.opts.RFixL, LEx: ix.opts.LEx})
				qr.RFixEdges += rst.EdgesAdded
				qr.RFixTriggered = qr.RFixTriggered || rst.Triggered
				qr.RFixReached = rst.Reached
			}
		}
		rep.NGFixEdges += qr.NGFixEdges
		rep.NGFixPruned += qr.NGFixPruned
		rep.RFixEdges += qr.RFixEdges
		if qr.RFixTriggered {
			rep.RFixTriggered++
		}
		if qr.RFixReached {
			rep.RFixReached++
		}
		rep.DefectivePairs += qr.DefectivePairs
		rep.PerQueryEdges[qi] = qr.NGFixEdges + qr.RFixEdges
	}
	return rep
}

// TestFixMatchesReference pins the fix pass's scratch rewrite: on a seeded
// HNSW fixture, 200 history queries fixed through Index.Fix and through
// the pre-scratch ComputeEH/NGFix leave identical base and extra
// adjacency, identical EH tags and an identical FixReport — with the
// extra-degree budget loose, and tight enough that every prune mode
// evicts.
func TestFixMatchesReference(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "fix-reference", N: 1500, NHist: 200, NTest: 1,
		Dim: 16, Clusters: 12, Metric: vec.L2,
		GapMagnitude: 2.5, ClusterStd: 0.2, QueryStdScale: 2,
		Seed: 5,
	})
	base := hnsw.Build(d.Base, hnsw.Config{M: 4, EFConstruction: 32, Metric: vec.L2}).Bottom()
	hist := d.History
	truth := ExactTruth(d.Base, hist, vec.L2, 64)
	tight := []Round{{K: 30, Delta: 12, RFix: true}, {K: 10, Delta: 6}}
	for _, opts := range []Options{
		{LEx: 48, Seed: 3},
		{Rounds: tight, LEx: 2, Prune: PruneEH, Seed: 3},
		{Rounds: tight, LEx: 2, Prune: PruneRandom, Seed: 3},
		{Rounds: tight, LEx: 2, Prune: PruneMRNG, Seed: 3},
		{Rounds: []Round{{K: 40, KMax: 64, RFix: true}, {K: 12, Delta: 8}}, LEx: 24, Seed: 3},
	} {
		got := New(base.Clone(), opts)
		want := New(base.Clone(), opts)
		gotRep := got.Fix(hist, truth)
		wantRep := refFix(want, hist, truth)
		gotRep.Elapsed = 0
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("%+v: report %+v, reference %+v", opts, gotRep, wantRep)
		}
		t.Logf("LEx %d prune %d: %d edges, %d pruned, %d RFix edges", opts.LEx, opts.Prune, gotRep.NGFixEdges, gotRep.NGFixPruned, gotRep.RFixEdges)
		if gotRep.NGFixEdges == 0 || (opts.LEx == 2 && gotRep.NGFixPruned == 0) {
			t.Fatalf("%+v: fixture too easy: %+v", opts, gotRep)
		}
		for u := uint32(0); u < uint32(got.G.Len()); u++ {
			if !reflect.DeepEqual(got.G.BaseNeighbors(u), want.G.BaseNeighbors(u)) {
				t.Fatalf("%+v: vertex %d base adjacency differs", opts, u)
			}
			if !reflect.DeepEqual(got.G.ExtraNeighbors(u), want.G.ExtraNeighbors(u)) {
				t.Fatalf("%+v: vertex %d extra adjacency %v, reference %v", opts, u, got.G.ExtraNeighbors(u), want.G.ExtraNeighbors(u))
			}
		}
		if err := got.G.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// One reused scratch returns the pre-scratch ComputeEH's matrix query
// after query on a real graph, and on random lists that name a vertex
// twice or run past 64 neighbours.
func TestComputeEHScratchMatchesPrevious(t *testing.T) {
	d, g := testWorkload(t)
	truth := ExactTruth(d.Base, d.History.Slice(0, 100), vec.L2, 130)
	var s fixScratch
	check := func(what string, nn []uint32, k int) {
		t.Helper()
		want := refComputeEH(g, nn, k)
		got := s.computeEH(g, nn, k)
		if got.K != want.K || got.KMax != want.KMax || !reflect.DeepEqual(got.EH, want.EH) {
			t.Fatalf("%s (kmax %d, k %d): EH differs from the reference", what, len(nn), k)
		}
	}
	for qi, tr := range truth {
		nn := bruteforce.IDs(tr)
		check("truth", nn[:60], 30)
		check("truth", nn[:20], 10)
		if qi%10 == 0 {
			check("truth", nn, 100)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		// A real neighbourhood, locally reordered, cut at a random length,
		// with some entries replaced by earlier ones.
		nn := bruteforce.IDs(truth[trial%len(truth)])
		for i := range nn {
			if j := i + rng.Intn(4); j < len(nn) {
				nn[i], nn[j] = nn[j], nn[i]
			}
			if i > 0 && rng.Intn(10) == 0 {
				nn[i] = nn[rng.Intn(i)]
			}
		}
		nn = nn[:1+rng.Intn(len(nn))]
		check("shuffled", nn, rng.Intn(len(nn)+1))
	}
}

package bench

import (
	"fmt"
	"time"

	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/minheap"
	"ngfix/internal/pq"
	"ngfix/internal/vec"
)

// The beam rows of the kernel micro-bench time whole searches over a
// seeded corpus and divide by the vertices they score: ns per distance
// (NDC) for full precision, ns per ADC lookup for the fused PQ search
// (its table build and exact rerank included). Each is measured for the
// one beam loop (graph.Beam, one kernel call per hop) and for the loop it
// replaced (heaps, one kernel call per row), and the two must score the
// same number of vertices.

// BeamSpeedup is one heaps-vs-beam headline.
type BeamSpeedup struct {
	Op      string  `json:"op"` // "beam_ndc" | "beam_adc"
	EF      int     `json:"ef"`
	Speedup float64 `json:"speedup"` // heaps ns_per_op / beam ns_per_op
}

// heapBeam is the search loop as it was before graph.Beam: a min-heap of
// candidates, a bounded max-heap of the L best live results and, for the
// compressed search, a third bounded heap every scored live vertex enters
// as a rerank candidate. Each score is its own call.
type heapBeam struct {
	g       *graph.Graph
	visited *minheap.Visited
	cand    *minheap.Min
	results *minheap.Bounded
	pool    *minheap.Bounded
}

func newHeapBeam(g *graph.Graph) *heapBeam {
	return &heapBeam{g: g, visited: minheap.NewVisited(g.Len()), cand: minheap.NewMin(256),
		results: minheap.NewBounded(16), pool: minheap.NewBounded(16)}
}

// search runs the loop from the entry point with beam width L, keeping the
// pool best live vertices in h.pool (pool 0: none), and returns how many
// vertices it scored.
func (h *heapBeam) search(score func(id uint32) float32, L, pool int) int64 {
	g := h.g
	h.visited.Reset()
	h.cand.Reset()
	h.results.Reset(L)
	if pool > 0 {
		h.pool.Reset(pool)
	}
	var scored int64
	admit := func(v uint32) {
		if h.visited.Visit(v) {
			return
		}
		d := score(v)
		scored++
		if pool > 0 && !g.IsDeleted(v) {
			h.pool.Push(minheap.Item{ID: v, Dist: d})
		}
		if h.results.WouldAccept(d) {
			h.cand.Push(minheap.Item{ID: v, Dist: d})
			if !g.IsDeleted(v) {
				h.results.Push(minheap.Item{ID: v, Dist: d})
			}
		}
	}
	admit(g.EntryPoint)
	for h.cand.Len() > 0 {
		cur := h.cand.Pop()
		if worst, ok := h.results.MaxDist(); ok && h.results.Full() && cur.Dist > worst {
			break
		}
		for _, v := range g.Neighbors(cur.ID) {
			admit(v)
		}
	}
	return scored
}

// beamBenchShape is the corpus of the beam rows: the serving benchmark's
// shape (10 000 × 128, cosine, 64 clusters, OOD queries) unless short.
func beamBenchShape(short bool) (n, queries int) {
	if short {
		return 2000, 100
	}
	return 10000, 1000
}

// runBeamRows measures the beam rows at ef 10 and 64 on the active
// (fastest) kernel arm.
func runBeamRows(short bool, minTime time.Duration, arm string) ([]KernelResult, []BeamSpeedup) {
	n, nq := beamBenchShape(short)
	const dim = 128
	d := dataset.Generate(dataset.Config{
		Name: "beam", N: n, NHist: 1, NTest: nq, Dim: dim, Clusters: 64, Metric: vec.Cosine,
		GapMagnitude: 2.0, ClusterStd: 0.2, QueryStdScale: 1.8, Normalize: true, Seed: 101,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 16, EFConstruction: 100, Metric: vec.Cosine}).Bottom()
	quant, err := pq.Train(d.Base, pq.Config{M: 16, KS: 256, Iters: 8, Seed: 23})
	if err != nil {
		panic(err) // fixed shape: M divides dim and KS ≤ rows
	}
	queries := d.TestOOD

	full := graph.NewSearcher(g)
	fused := pq.NewGraphSearcher(g, quant)
	fused.Rerank = 4 * K
	heaps := newHeapBeam(g)
	var table pq.Table

	// Each loop variant runs query i and returns the vertices it scored.
	type variant struct {
		op, loop string
		run      func(i, ef int) int64
	}
	variants := []variant{
		{"beam_ndc", "heaps", func(i, ef int) int64 {
			qd := vec.NewQueryDistancer(g.Metric, queries.Row(i), g.RowNorms())
			scored := heaps.search(func(id uint32) float32 { return qd.RowDistance(g.Vectors, id) }, max(ef, K), 0)
			heaps.results.SortedAscending()
			return scored
		}},
		{"beam_ndc", "beam", func(i, ef int) int64 {
			_, st := full.SearchFrom(queries.Row(i), K, ef, g.EntryPoint)
			return st.NDC
		}},
		{"beam_adc", "heaps", func(i, ef int) int64 {
			q := queries.Row(i)
			table = quant.BuildTableInto(table, q)
			scored := heaps.search(func(id uint32) float32 { return quant.ADC(table, int(id)) }, max(ef, K), 4*K)
			reranked := minheap.NewBounded(K)
			for _, it := range heaps.pool.SortedAscending() {
				if d := g.Distance(q, it.ID); reranked.WouldAccept(d) {
					reranked.Push(minheap.Item{ID: it.ID, Dist: d})
				}
			}
			reranked.SortedAscending()
			return scored
		}},
		{"beam_adc", "beam", func(i, ef int) int64 {
			_, st := fused.Search(queries.Row(i), K, ef)
			return st.ADCLookups
		}},
	}

	var rows []KernelResult
	var speedups []BeamSpeedup
	for _, ef := range []int{10, 64} {
		nsPer := map[string]float64{}
		scored := map[string]int64{}
		for _, v := range variants {
			var total int64
			for i := 0; i < nq; i++ {
				total += v.run(i, ef)
			}
			if prev, ok := scored[v.op]; ok && prev != total {
				panic(fmt.Sprintf("bench: %s at ef=%d: the %s loop scored %d vertices, the other %d", v.op, ef, v.loop, total, prev))
			}
			scored[v.op] = total
			next := 0
			ns := benchNs(minTime, func(iters int) {
				for it := 0; it < iters; it++ {
					v.run(next, ef)
					next = (next + 1) % nq
				}
			}) * float64(nq) / float64(total)
			rows = append(rows, KernelResult{
				Op: v.op, Dim: dim, EF: ef, Loop: v.loop, Arm: arm, Kernel: vec.KernelName(),
				NsPerOp: ns, OpsPerS: 1e9 / ns,
			})
			if v.loop == "heaps" {
				nsPer[v.op] = ns
			} else {
				speedups = append(speedups, BeamSpeedup{Op: v.op, EF: ef, Speedup: nsPer[v.op] / ns})
			}
		}
	}
	return rows, speedups
}

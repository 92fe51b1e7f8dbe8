package pq

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// The per-row path — one vec.DistancesRows scan over a row-major codebook
// per sub-vector, one random stream for all subspaces, one core — is what
// this package ran before the dimension-major kernel. It survives here as
// the reference the production path is measured against.

func argminReference(d []float32) int {
	best, bestD := 0, float32(math.Inf(1))
	for c, v := range d {
		if v < bestD {
			best, bestD = c, v
		}
	}
	return best
}

func trainSubspaceReference(data *vec.Matrix, m, sub, ks, iters int, rng *rand.Rand) *vec.Matrix {
	n := data.Rows()
	cents := vec.NewMatrix(ks, sub)
	perm := rng.Perm(n)
	for c := 0; c < ks; c++ {
		copy(cents.Row(c), data.Row(perm[c])[m*sub:(m+1)*sub])
	}
	assign := make([]int, n)
	dists := make([]float32, ks)
	for it := 0; it < iters; it++ {
		changed := 0
		for i := 0; i < n; i++ {
			vec.DistancesRows(vec.L2, data.Row(i)[m*sub:(m+1)*sub], cents, 0, ks, dists)
			if best := argminReference(dists); assign[i] != best {
				assign[i] = best
				changed++
			}
		}
		counts := make([]int, ks)
		sums := make([][]float64, ks)
		for c := range sums {
			sums[c] = make([]float64, sub)
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for j, v := range data.Row(i)[m*sub : (m+1)*sub] {
				sums[c][j] += float64(v)
			}
		}
		for c := 0; c < ks; c++ {
			if counts[c] == 0 {
				copy(cents.Row(c), data.Row(rng.Intn(n))[m*sub:(m+1)*sub])
				continue
			}
			row := cents.Row(c)
			for j := range row {
				row[j] = float32(sums[c][j] / float64(counts[c]))
			}
		}
		if changed == 0 {
			break
		}
	}
	return cents
}

// encodeReference is the per-row encoder over q's row-major centroids.
func encodeReference(q *Quantizer, row []float32, dst []byte) {
	dists := make([]float32, q.cfg.KS)
	for m := 0; m < q.cfg.M; m++ {
		vec.DistancesRows(vec.L2, row[m*q.sub:(m+1)*q.sub], q.centroids[m], 0, q.cfg.KS, dists)
		dst[m] = byte(argminReference(dists))
	}
}

// trainReference is Train as the per-row path ran it. cfg must be valid.
func trainReference(data *vec.Matrix, cfg Config) *Quantizer {
	n := data.Rows()
	if cfg.KS > n {
		cfg.KS = n
	}
	q := &Quantizer{cfg: cfg, dim: data.Dim(), sub: data.Dim() / cfg.M, rows: n}
	rng := rand.New(rand.NewSource(cfg.Seed))
	q.centroids = make([]*vec.Matrix, cfg.M)
	for m := range q.centroids {
		q.centroids[m] = trainSubspaceReference(data, m, q.sub, cfg.KS, cfg.Iters, rng)
	}
	q.deriveCols()
	q.codes = make([]byte, n*cfg.M)
	for i := 0; i < n; i++ {
		encodeReference(q, data.Row(i), q.codes[i*cfg.M:(i+1)*cfg.M])
	}
	return q
}

func buildTableReference(q *Quantizer, query []float32) Table {
	ks := q.cfg.KS
	t := make(Table, q.cfg.M*ks)
	for m := 0; m < q.cfg.M; m++ {
		vec.DistancesRows(vec.L2, query[m*q.sub:(m+1)*q.sub], q.centroids[m], 0, ks, t[m*ks:(m+1)*ks])
	}
	return t
}

// checkCodesNearest asserts every code of rows [lo, hi) names a centroid
// that is nearest to the row's block up to kernel rounding — the property
// an encoder must have whichever kernel scored the centroids.
func checkCodesNearest(t *testing.T, q *Quantizer, data *vec.Matrix, lo, hi int) {
	t.Helper()
	dists := make([]float32, q.cfg.KS)
	for i := lo; i < hi; i++ {
		for m, c := range q.Code(i) {
			vec.DistancesRows(vec.L2, data.Row(i)[m*q.sub:(m+1)*q.sub], q.centroids[m], 0, q.cfg.KS, dists)
			best := dists[argminReference(dists)]
			if got := dists[c]; got > best*(1+1e-4)+1e-9 {
				t.Fatalf("row %d subspace %d: code %d at distance %v, nearest centroid at %v", i, m, c, got, best)
			}
		}
	}
}

func TestBuildTableMatchesReference(t *testing.T) {
	for _, shape := range []struct{ dim, m, ks int }{{16, 8, 64}, {24, 6, 50}, {128, 16, 256}, {10, 1, 7}} {
		data := randomMatrix(51, 400, shape.dim)
		q, err := Train(data, Config{M: shape.m, KS: shape.ks, Iters: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 10; qi++ {
			query := randomMatrix(int64(52+qi), 1, shape.dim).Row(0)
			got, want := q.BuildTable(query), buildTableReference(q, query)
			for i := range want {
				if d := math.Abs(float64(got[i] - want[i])); d > 1e-4*math.Max(1, float64(want[i])) {
					t.Fatalf("dim=%d m=%d ks=%d entry %d: %v vs per-row %v", shape.dim, shape.m, shape.ks, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTrainNoWorseThanReference holds the production trainer to the
// per-row reference on this package's fixtures: mean quantization error
// within 1 %, and fused recall@10 within one point. The codebooks differ
// legitimately (per-subspace random streams, kernel rounding), so the
// comparison is of quality, not of bytes.
func TestTrainNoWorseThanReference(t *testing.T) {
	fixtures := []struct {
		name string
		data *vec.Matrix
		cfg  Config
	}{
		{"fine-500x16", randomMatrix(2, 500, 16), Config{M: 8, KS: 64, Iters: 6}},
		{"ranking-800x16", randomMatrix(4, 800, 16), Config{M: 8, KS: 64, Iters: 8}},
		{"beam-2000x16", randomMatrix(21, 2000, 16), Config{M: 8, KS: 64, Iters: 6, Seed: 3}},
	}
	var sumNew, sumRef float64
	for _, f := range fixtures {
		q, err := Train(f.data, f.cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkCodesNearest(t, q, f.data, 0, f.data.Rows())
		ref := trainReference(f.data, f.cfg)
		en, er := q.QuantizationError(f.data), ref.QuantizationError(f.data)
		t.Logf("%s: quantization error %.5f, per-row reference %.5f", f.name, en, er)
		sumNew += en / er
		sumRef++
	}
	if mean := sumNew / sumRef; mean > 1.01 {
		t.Fatalf("mean quantization error is %.2f%% above the per-row reference", (mean-1)*100)
	}

	d := dataset.Generate(dataset.Config{
		Name: "pq-test", N: 1000, NHist: 50, NTest: 40,
		Dim: 16, Clusters: 8, Metric: vec.L2,
		GapMagnitude: 1.2, ClusterStd: 0.25, QueryStdScale: 1.4, Seed: 6,
	})
	g := hnsw.Build(d.Base, hnsw.Config{M: 12, EFConstruction: 100, Metric: vec.L2}).Bottom()
	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, 10)
	cfg := Config{M: 8, KS: 64, Iters: 8, Seed: 3}
	q, err := Train(d.Base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recall := func(q *Quantizer) float64 {
		s := NewGraphSearcher(g, q)
		var sum float64
		for qi := 0; qi < d.TestOOD.Rows(); qi++ {
			res, _ := s.Search(d.TestOOD.Row(qi), 10, 60)
			sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
		}
		return sum / float64(d.TestOOD.Rows())
	}
	rn, rr := recall(q), recall(trainReference(d.Base, cfg))
	t.Logf("fused recall@10: %.4f, per-row reference %.4f", rn, rr)
	if rn < rr-0.01 {
		t.Fatalf("fused recall@10 %.4f more than 1%% below the per-row reference %.4f", rn, rr)
	}
}

// TestTrainDeterministicAcrossCores pins the contract that lets codes be
// persisted and replayed: codebooks and codes are a function of the data
// and the config alone — the same at one core and four, and run to run.
func TestTrainDeterministicAcrossCores(t *testing.T) {
	data := randomMatrix(61, 3000, 16)
	extra := randomMatrix(62, 700, 16)
	cfg := Config{M: 8, KS: 32, Iters: 5, Seed: 11}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 4, 4, 1} {
		runtime.GOMAXPROCS(procs)
		q, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q.AppendRowsFrom(extra, 0, extra.Rows())
		var buf bytes.Buffer
		if err := q.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("GOMAXPROCS=%d: codebooks or codes differ from the first run", procs)
		}
	}
}

// TestAppendRowsFromMatchesAppendRow pins the bulk encoder to the
// row-at-a-time one: same bytes, same row count.
func TestAppendRowsFromMatchesAppendRow(t *testing.T) {
	data := randomMatrix(63, 600, 12)
	q, err := Train(data.Slice(0, 100), Config{M: 3, KS: 20, Iters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bulk := q.CloneEmpty()
	bulk.AppendRowsFrom(data, 0, 0)
	bulk.AppendRowsFrom(data, 0, data.Rows())
	single := q.CloneEmpty()
	for i := 0; i < data.Rows(); i++ {
		single.AppendRow(data.Row(i))
	}
	if bulk.Rows() != data.Rows() || !bytes.Equal(bulk.codes, single.codes) {
		t.Fatalf("bulk encode differs from AppendRow (rows %d vs %d)", bulk.Rows(), single.Rows())
	}
}

// TestSidecarFromParentCommit loads a quantizer written by the codec as it
// stood before the dimension-major layout (Train over randomMatrix(41,
// 300, 16) with the config below, at commit d79aee6): it must load, write
// back the same bytes, serve fused searches, and encode appended rows
// under the persisted codebooks.
func TestSidecarFromParentCommit(t *testing.T) {
	raw, err := os.ReadFile("testdata/quantizer_v1_d79aee6.ngpq")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ReadQuantizer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{M: 4, KS: 32, Iters: 6, Seed: 5}); q.Config() != want || q.Dim() != 16 || q.Rows() != 300 {
		t.Fatalf("loaded %+v dim=%d rows=%d", q.Config(), q.Dim(), q.Rows())
	}
	var back bytes.Buffer
	if err := q.Encode(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), raw) {
		t.Fatal("re-encoding the loaded quantizer changed its bytes: the sidecar format moved")
	}

	data := randomMatrix(41, 300, 16)
	checkCodesNearest(t, q, data, 0, 300)
	g := hnsw.Build(data, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2}).Bottom()
	s := NewGraphSearcher(g, q)
	for _, id := range []int{0, 7, 150, 299} {
		res, st := s.Search(data.Row(id), 5, 40)
		if len(res) == 0 || int(res[0].ID) != id || st.ADCLookups == 0 {
			t.Fatalf("fused search for row %d over the loaded sidecar: %v (adc %d)", id, res, st.ADCLookups)
		}
	}

	extra := randomMatrix(42, 40, 16)
	all := data.Clone()
	for i := 0; i < extra.Rows(); i++ {
		all.Append(extra.Row(i))
	}
	q.AppendRowsFrom(extra, 0, 20)
	for i := 20; i < 40; i++ {
		q.AppendRow(extra.Row(i))
	}
	if q.Rows() != 340 {
		t.Fatalf("rows after append = %d, want 340", q.Rows())
	}
	checkCodesNearest(t, q, all, 300, 340)
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"

	"ngfix/internal/dataset"
	"ngfix/internal/vec"
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
)

// request is one pre-encoded operation. idx is its row in the pool it
// came from (test queries for searches, insert vectors for inserts).
type request struct {
	kind opKind
	body []byte
	idx  int
}

// inputs is everything one run sends, made from the seed alone. The
// server sees the corpus file and these bodies, never the seed.
type inputs struct {
	sz   sizes
	seed int64
	wl   workload
	ds   *dataset.Dataset

	hist    [][]byte // history searches, always k=10 ef=64 so every workload repairs the same graph
	test    [][]byte // timed searches at the workload's k/ef
	probe   [][]byte
	inserts [][]byte // fresh base-distribution vectors (the recipe's ID set)

	generate time.Duration // dataset.Generate alone
}

// recipe is the LAION-style cross-modal recipe (cosine, unit-normalised,
// modality gap on) at the benchmark's shape.
func recipe(sz sizes, seed int64) dataset.Config {
	return dataset.Config{
		Name: "bench", N: sz.N, NHist: sz.Hist, NTest: sz.Test + sz.Probe,
		Dim: sz.Dim, Clusters: sz.Clusters, Metric: vec.Cosine,
		GapMagnitude: 2.0, ClusterStd: 0.2, QueryStdScale: 1.8,
		Normalize: true, Seed: 7919*seed + 102,
	}
}

func makeInputs(sz sizes, seed int64, wl workload) *inputs {
	start := time.Now()
	ds := dataset.Generate(recipe(sz, seed))
	in := &inputs{sz: sz, seed: seed, wl: wl, ds: ds, generate: time.Since(start)}
	in.hist = searchBodies(ds.History, 0, sz.Hist, 10, 64)
	in.test = searchBodies(ds.TestOOD, 0, sz.Test, wl.K, wl.EF)
	in.probe = searchBodies(ds.TestOOD, sz.Test, sz.Test+sz.Probe, wl.K, wl.EF)
	if wl.InsertEvery > 0 {
		in.inserts = make([][]byte, ds.TestID.Rows())
		for i := range in.inserts {
			in.inserts[i] = append(appendVector([]byte(`{"vector":`), ds.TestID.Row(i)), '}')
		}
	}
	return in
}

// probeVector is the i-th held-out probe query.
func (in *inputs) probeVector(i int) []float32 { return in.ds.TestOOD.Row(in.sz.Test + i) }

func searchBodies(m *vec.Matrix, lo, hi, k, ef int) [][]byte {
	out := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, searchBody(m.Row(i), k, ef))
	}
	return out
}

func searchBody(v []float32, k, ef int) []byte {
	b := appendVector([]byte(`{"vector":`), v)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"ef":`...)
	b = strconv.AppendInt(b, int64(ef), 10)
	return append(b, '}')
}

// appendVector writes v as a JSON array in the shortest form that
// parses back to the same float32s.
func appendVector(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, ']')
}

// isInsert is the seeded per-connection schedule: whether connection
// conn's i-th operation is an insert.
func (in *inputs) isInsert(conn, i int) bool {
	if in.wl.InsertEvery <= 0 {
		return false
	}
	return splitmix(uint64(in.seed)<<40^uint64(conn)<<32^uint64(i))%uint64(in.wl.InsertEvery) == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// source yields each connection's operations in order. Searches cycle
// the test queries and inserts walk the insert pool, both striped by
// connection so no two connections send the same body at the same
// position. Not safe for concurrent use of one connection.
type source struct {
	in       *inputs
	conns    int
	pos      []int // operations issued per connection
	searches []int
	inserted []int
	// insertsIssued counts inserts handed out over all connections, for
	// readers on other goroutines (the id range a reply may name).
	insertsIssued atomic.Int64
}

func newSource(in *inputs, conns int) *source {
	return &source{in: in, conns: conns, pos: make([]int, conns), searches: make([]int, conns), inserted: make([]int, conns)}
}

func (s *source) next(conn int) request {
	i := s.pos[conn]
	s.pos[conn]++
	if s.in.isInsert(conn, i) {
		j := (s.inserted[conn]*s.conns + conn) % len(s.in.inserts)
		s.inserted[conn]++
		s.insertsIssued.Add(1)
		return request{kind: opInsert, body: s.in.inserts[j], idx: j}
	}
	j := (s.searches[conn]*s.conns + conn) % len(s.in.test)
	s.searches[conn]++
	return request{kind: opSearch, body: s.in.test[j], idx: j}
}

// streamHash fingerprints what a run would send: every body pool, the
// first perConn operations of each connection's schedule, and the
// open-loop due times at the workload's rate. Same seed, same hash.
func streamHash(in *inputs, conns, perConn int) string {
	h := sha256.New()
	for _, pool := range [][][]byte{in.hist, in.test, in.probe, in.inserts} {
		for _, b := range pool {
			h.Write(b)
			h.Write([]byte{0})
		}
	}
	src := newSource(in, conns)
	var buf [16]byte
	for c := 0; c < conns; c++ {
		for i := 0; i < perConn; i++ {
			r := src.next(c)
			binary.LittleEndian.PutUint64(buf[:8], uint64(r.kind)<<32|uint64(r.idx))
			binary.LittleEndian.PutUint64(buf[8:], uint64(dueOffset(in.wl.OpenRateQPS, conns, c, i)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

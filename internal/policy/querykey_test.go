package policy

import (
	"crypto/md5"
	"encoding/binary"
	"math"
	"testing"

	"ngfix/internal/graph"
)

func TestQueryKeyBitExact(t *testing.T) {
	a := []float32{1, 2, 3, -0.5}
	b := append([]float32(nil), a...)
	if QueryKey(a) != QueryKey(b) {
		t.Fatal("identical bits must key identically")
	}
	b[2] = math.Nextafter32(b[2], 4)
	if QueryKey(a) == QueryKey(b) {
		t.Fatal("one-ulp perturbation should (overwhelmingly) change the key")
	}
	// NaN keys by bit pattern, so a query containing NaN still round-trips.
	n := []float32{float32(math.NaN()), 1}
	if QueryKey(n) != QueryKey(append([]float32(nil), n...)) {
		t.Fatal("NaN bits must key stably")
	}
	if !SameQuery(n, append([]float32(nil), n...)) {
		t.Fatal("SameQuery must treat equal NaN bits as equal")
	}
	if SameQuery(a, b) {
		t.Fatal("SameQuery must see the perturbed lane")
	}
	if SameQuery(a, a[:3]) {
		t.Fatal("SameQuery must reject length mismatch")
	}
}

// TestCacheCollisionIsMiss plants an entry for another query under q's
// key by force and checks the stored-key verification turns the
// collision into a miss instead of a wrong answer.
func TestCacheCollisionIsMiss(t *testing.T) {
	c := NewCache(64)
	q := []float32{1, 2, 3}
	key := QueryKey(q)
	seg := &c.segs[key&(cacheSegments-1)]
	seg.entries[key] = &cacheEntry{
		q:   []float32{9, 9, 9}, // as if a colliding query had been stored
		res: []graph.Result{{ID: 7}},
		k:   10,
		ef:  100,
		gen: c.Generation(),
	}
	seg.order = append(seg.order, key)
	if _, ok := c.Get(q, 10, 100); ok {
		t.Fatal("hash hit with mismatched stored key must be a miss")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 0/1", st.Hits, st.Misses)
	}
}

// md5QueryKey is the answer cache's earlier keying scheme, kept verbatim
// here so the micro-benchmarks below measure before/after in one binary.
func md5QueryKey(q []float32) [md5.Size]byte {
	buf := make([]byte, 4*len(q))
	for i, v := range q {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return md5.Sum(buf)
}

func benchKeyVec(dim int) []float32 {
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(i) * 0.31
	}
	return q
}

func BenchmarkQueryKeyMD5Dim128(b *testing.B) { benchKeyMD5(b, 128) }
func BenchmarkQueryKeyMD5Dim768(b *testing.B) { benchKeyMD5(b, 768) }
func BenchmarkQueryKeyFNVDim128(b *testing.B) { benchKeyFNV(b, 128) }
func BenchmarkQueryKeyFNVDim768(b *testing.B) { benchKeyFNV(b, 768) }

func benchKeyMD5(b *testing.B, dim int) {
	q := benchKeyVec(dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md5QueryKey(q)
	}
}

func benchKeyFNV(b *testing.B, dim int) {
	q := benchKeyVec(dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QueryKey(q)
	}
}

package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestSetOrAndNot(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	a.Or(b)
	for _, i := range []int{3, 70, 99} {
		if !a.Test(i) {
			t.Fatalf("bit %d missing after Or", i)
		}
	}
	a.AndNot(b)
	if a.Test(70) || a.Test(99) || !a.Test(3) {
		t.Fatal("AndNot result wrong")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).Or(New(20))
}

func TestCloneEqual(t *testing.T) {
	a := New(77)
	a.Set(5)
	a.Set(76)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(6)
	if a.Equal(b) || a.Test(6) {
		t.Fatal("clone shares storage or Equal broken")
	}
	if a.Equal(New(78)) {
		t.Fatal("Equal ignored capacity")
	}
}

func TestForEach(t *testing.T) {
	s := New(200)
	want := []int{1, 64, 65, 130, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	s.ForEach(func(int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

// referenceClosure computes the transitive closure of adj by repeated
// squaring over a plain [][]bool for comparison with Matrix.CloseOver.
func referenceClosure(adj [][]bool) [][]bool {
	n := len(adj)
	r := make([][]bool, n)
	for i := range r {
		r[i] = append([]bool(nil), adj[i]...)
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !r[i][j] {
					for k := 0; k < n; k++ {
						if r[i][k] && r[k][j] {
							r[i][j] = true
							changed = true
							break
						}
					}
				}
			}
		}
	}
	return r
}

func randomAdj(rng *rand.Rand, n int, p float64) [][]bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for j := range adj[i] {
			if i != j && rng.Float64() < p {
				adj[i][j] = true
			}
		}
	}
	return adj
}

func TestCloseOverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(24)
		adj := randomAdj(rng, n, 0.12)
		m := NewMatrix(n)
		for i := range adj {
			for j := range adj[i] {
				if adj[i][j] {
					m.Set(i, j)
				}
			}
		}
		m.CloseOver(n)
		want := referenceClosure(adj)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.Test(i, j) != want[i][j] {
					t.Fatalf("trial %d: closure(%d,%d) = %v, want %v", trial, i, j, m.Test(i, j), want[i][j])
				}
			}
		}
	}
}

// Property: RelaxThrough after adding edges touching a new vertex yields
// the same matrix as recomputing the closure from scratch, every pair that
// turns reachable does so at some step, and a step allocates nothing.
func TestRelaxThroughIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(20)
		adj := randomAdj(rng, n, 0.15)

		// Incremental: add vertices one at a time (vertex p and all its
		// edges to/from vertices < p), relaxing after each.
		inc := NewMatrix(n)
		reported := map[[2]int]bool{}
		for p := 0; p < n; p++ {
			for j := 0; j < p; j++ {
				if adj[p][j] {
					inc.Set(p, j)
				}
				if adj[j][p] {
					inc.Set(j, p)
				}
			}
			before := inc.Clone()
			inc.RelaxThrough(p)
			for i := 0; i <= p; i++ {
				for j := 0; j <= p; j++ {
					if inc.Test(i, j) && !before.Test(i, j) {
						reported[[2]int{i, j}] = true
					}
				}
			}
			// After step p the first p+1 vertices are closed over
			// themselves: the precondition of step p+1.
			want := NewMatrix(n)
			for i := 0; i <= p; i++ {
				for j := 0; j <= p; j++ {
					if adj[i][j] {
						want.Set(i, j)
					}
				}
			}
			want.CloseOver(p + 1)
			for i := 0; i <= p; i++ {
				if !inc.Row(i).Equal(want.Row(i)) {
					t.Fatalf("trial %d n=%d: row %d after step %d is not the closure over the first %d vertices", trial, n, i, p, p+1)
				}
			}
		}

		batch := NewMatrix(n)
		for i := range adj {
			for j := range adj[i] {
				if adj[i][j] {
					batch.Set(i, j)
				}
			}
		}
		batch.CloseOver(n)

		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// Incremental also records the direct edges; closure bits
				// must agree except the direct edges are set in both.
				if inc.Test(i, j) != batch.Test(i, j) {
					t.Fatalf("trial %d n=%d: (%d,%d) inc=%v batch=%v", trial, n, i, j, inc.Test(i, j), batch.Test(i, j))
				}
			}
		}
		// Every reachable non-edge pair must have been reported at some step
		// (direct edges are set before relaxation so they may or may not be
		// reported; reachability created later must be).
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && batch.Test(i, j) && !adj[i][j] && !reported[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) reachable but never reported", trial, i, j)
				}
			}
		}
	}
}

func TestRelaxThroughAllocatesNothing(t *testing.T) {
	m := NewMatrix(64)
	for i := 0; i < 64; i++ {
		m.Set(i, i)
		m.Set(i, (i*7+3)%64)
	}
	if n := testing.AllocsPerRun(20, func() {
		for p := 0; p < 64; p++ {
			m.RelaxThrough(p)
		}
	}); n != 0 {
		t.Fatalf("RelaxThrough allocates %v times per sweep", n)
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(5)
	m.Set(1, 2)
	c := m.Clone()
	c.Set(3, 4)
	if m.Test(3, 4) || !c.Test(1, 2) {
		t.Fatal("Matrix clone shares storage")
	}
	if m.Size() != 5 {
		t.Fatalf("Size = %d, want 5", m.Size())
	}
}

// Property-based: Or is idempotent and commutative on random sets.
func TestOrProperties(t *testing.T) {
	f := func(bits1, bits2 []uint16) bool {
		n := 256
		a := New(n)
		b := New(n)
		for _, v := range bits1 {
			a.Set(int(v) % n)
		}
		for _, v := range bits2 {
			b.Set(int(v) % n)
		}
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			return false
		}
		again := ab.Clone()
		again.Or(b)
		return again.Equal(ab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCloseOver128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	base := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.05 {
				base.Set(i, j)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := base.Clone()
		m.CloseOver(n)
	}
}

package minheap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapOrdering(t *testing.T) {
	h := NewMin(8)
	dists := []float32{5, 1, 4, 2, 8, 0.5, 3}
	for i, d := range dists {
		h.Push(Item{ID: uint32(i), Dist: d})
	}
	if h.Len() != len(dists) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(dists))
	}
	sorted := append([]float32(nil), dists...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, want := range sorted {
		if got := h.Pop().Dist; got != want {
			t.Fatalf("Pop = %v, want %v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestMinHeapTopReset(t *testing.T) {
	h := NewMin(4)
	h.Push(Item{ID: 1, Dist: 3})
	h.Push(Item{ID: 2, Dist: 1})
	if h.Top().ID != 2 {
		t.Fatalf("Top = %v, want id 2", h.Top())
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
}

func TestBoundedKeepsClosest(t *testing.T) {
	h := NewBounded(3)
	for i, d := range []float32{9, 7, 5, 3, 1, 8, 2} {
		h.Push(Item{ID: uint32(i), Dist: d})
	}
	if !h.Full() {
		t.Fatal("heap should be full")
	}
	got := h.SortedAscending()
	want := []float32{1, 2, 3}
	for i := range want {
		if got[i].Dist != want[i] {
			t.Fatalf("SortedAscending = %v, want dists %v", got, want)
		}
	}
}

func TestBoundedRejectsFar(t *testing.T) {
	h := NewBounded(2)
	h.Push(Item{ID: 0, Dist: 1})
	h.Push(Item{ID: 1, Dist: 2})
	if h.Push(Item{ID: 2, Dist: 3}) {
		t.Fatal("Push of farther item into full heap should be rejected")
	}
	if h.WouldAccept(5) {
		t.Fatal("WouldAccept(5) should be false")
	}
	if !h.WouldAccept(1.5) {
		t.Fatal("WouldAccept(1.5) should be true")
	}
	d, ok := h.MaxDist()
	if !ok || d != 2 {
		t.Fatalf("MaxDist = %v,%v want 2,true", d, ok)
	}
}

func TestBoundedPopMax(t *testing.T) {
	h := NewBounded(4)
	for i, d := range []float32{4, 1, 3, 2} {
		h.Push(Item{ID: uint32(i), Dist: d})
	}
	if got := h.PopMax().Dist; got != 4 {
		t.Fatalf("PopMax = %v, want 4", got)
	}
	if h.Len() != 3 {
		t.Fatalf("Len after PopMax = %d", h.Len())
	}
}

func TestBoundedResetCap(t *testing.T) {
	h := NewBounded(2)
	h.Push(Item{ID: 0, Dist: 1})
	h.Reset(5)
	if h.Len() != 0 || h.Cap() != 5 {
		t.Fatalf("after Reset(5): len=%d cap=%d", h.Len(), h.Cap())
	}
	h.Reset(0)
	if h.Cap() != 5 {
		t.Fatal("Reset(0) should keep capacity")
	}
	if _, ok := h.MaxDist(); ok {
		t.Fatal("MaxDist on empty heap should report !ok")
	}
}

func TestBoundedCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cap 0")
		}
	}()
	NewBounded(0)
}

// Property: Bounded(k) over any input stream retains exactly the k smallest
// distances (multiset equality).
func TestBoundedMatchesSort(t *testing.T) {
	f := func(seed int64, raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		h := NewBounded(k)
		for i, d := range raw {
			h.Push(Item{ID: uint32(i), Dist: d})
		}
		got := h.SortedAscending()
		sorted := append([]float32(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		n := k
		if len(sorted) < n {
			n = len(sorted)
		}
		if len(got) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i].Dist != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVisited(t *testing.T) {
	v := NewVisited(10)
	if v.Visit(3) {
		t.Fatal("first Visit should report unvisited")
	}
	if !v.Visit(3) {
		t.Fatal("second Visit should report visited")
	}
	if !v.Test(3) || v.Test(4) {
		t.Fatal("Test wrong")
	}
	v.Reset()
	if v.Test(3) {
		t.Fatal("Reset did not clear marks")
	}
	v.Grow(20)
	if v.Visit(15) {
		t.Fatal("grown id should start unvisited")
	}
	v.Grow(5) // no-op shrink attempt
	if !v.Test(15) {
		t.Fatal("Grow with smaller n must not lose marks")
	}
}

// TestVisitedGrowGeometric checks that growing one id at a time, as a
// pooled searcher does behind a graph taking inserts, reallocates only
// when the space doubles and never loses a mark.
func TestVisitedGrowGeometric(t *testing.T) {
	v := NewVisited(8)
	v.Visit(7)
	reallocs := 0
	for n := 9; n <= 1000; n++ {
		before := &v.bits[0]
		v.Grow(n)
		if &v.bits[0] != before {
			reallocs++
		}
		if v.n < n || len(v.bits)*64 < n {
			t.Fatalf("Grow(%d) left %d ids", n, v.n)
		}
		if v.Visit(uint32(n-1)) || !v.Test(7) {
			t.Fatalf("Grow(%d) lost or invented a mark", n)
		}
	}
	if reallocs > 7 { // 8 ids → 16 → … → 1024
		t.Fatalf("%d reallocations growing 8 → 1000 one id at a time", reallocs)
	}
}

// TestVisitedResetForgetsMarks checks that no mark survives a Reset,
// across word boundaries and a Grow, and that AppendUnvisited agrees with
// Visit.
func TestVisitedResetForgetsMarks(t *testing.T) {
	v := NewVisited(130)
	for round := 0; round < 3; round++ {
		for _, id := range []uint32{0, 63, 64, 127, 129} {
			if v.Visit(id) {
				t.Fatalf("round %d: id %d marked before its first visit", round, id)
			}
		}
		if got := v.AppendUnvisited(nil, []uint32{1, 63, 1, 128, 64, 2}); !slices.Equal(got, []uint32{1, 128, 2}) {
			t.Fatalf("round %d: AppendUnvisited = %v, want [1 128 2]", round, got)
		}
		v.Reset()
		for id := uint32(0); id < 130; id++ {
			if v.Test(id) {
				t.Fatalf("round %d: id %d survived Reset", round, id)
			}
		}
		v.Grow(200 + 100*round)
	}
}

func BenchmarkBoundedPush(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	h := NewBounded(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Push(Item{ID: uint32(i), Dist: rng.Float32()})
	}
}

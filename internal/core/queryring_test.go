package core

import (
	"math/rand"
	"sync"
	"testing"

	"ngfix/internal/vec"
)

// ringHolds reports whether the ring holds exactly want, oldest first.
func ringHolds(r *queryRing, want [][]float32) bool {
	if r.count != len(want) {
		return false
	}
	for i, w := range want {
		got := r.row(i)
		for j := range w {
			if got[j] != w[j] {
				return false
			}
		}
	}
	return true
}

// The ring against a plain slice: random push / dropOldest / take, small
// and growing capacities, so growth with a wrapped head and take across
// the wrap are both exercised. take must hand back the oldest rows in
// oldest-first order, sharing nothing with the ring.
func TestQueryRingMatchesSliceModel(t *testing.T) {
	const dim = 3
	rng := rand.New(rand.NewSource(5))
	for _, capRows := range []int{1, 2, 7, 16, 40} {
		r := queryRing{dim: dim, capRows: capRows}
		var model [][]float32
		next := float32(0)
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				if len(model) == capRows {
					r.dropOldest()
					model = model[1:]
				}
				q := []float32{next, next + 0.25, next + 0.5}
				next++
				r.push(q)
				q2 := append([]float32(nil), q...)
				q[0] = -1 // the ring must have copied
				model = append(model, q2)
			case op < 8 && len(model) > 0:
				r.dropOldest()
				model = model[1:]
			case len(model) > 0:
				n := 1 + rng.Intn(len(model))
				m := r.take(n)
				if m.Rows() != n {
					t.Fatalf("cap %d: take(%d) returned %d rows", capRows, n, m.Rows())
				}
				for i := 0; i < n; i++ {
					for j, w := range model[i] {
						if m.Row(i)[j] != w {
							t.Fatalf("cap %d step %d: take(%d) row %d = %v, model %v", capRows, step, n, i, m.Row(i), model[i])
						}
					}
					m.Row(i)[0] = -2 // must not write through to the ring
				}
				model = model[n:]
			}
			if !ringHolds(&r, model) {
				t.Fatalf("cap %d step %d: ring diverged from the model (%d rows vs %d)", capRows, step, r.count, len(model))
			}
			if r.slots() > capRows {
				t.Fatalf("cap %d: ring grew to %d slots", capRows, r.slots())
			}
		}
	}
}

// The fixer's recording state against a slice model: served queries
// (sampled 1-in-n, shedding oldest when full), synthetic rows (accepted
// only below half capacity), and limited drains (oldest first), in a
// random order — pending rows, pending count and shed count must match
// after every step.
func TestOnlineFixerRecordingMatchesModel(t *testing.T) {
	d, g := testWorkload(t)
	for _, sampleEvery := range []int{1, 3} {
		const batch = 8
		ix := New(g.Clone(), Options{Rounds: []Round{{K: 10}}, LEx: 16})
		o := NewOnlineFixer(ix, OnlineConfig{BatchSize: batch, SampleEvery: sampleEvery, PrepEF: 30, TruthK: 20})
		rng := rand.New(rand.NewSource(int64(sampleEvery)))
		var model [][]float32
		served, shed, fixed := 0, 0, 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 14:
				q := d.History.Row(rng.Intn(d.History.Rows()))
				o.Search(q, 5, 10)
				if served++; served%sampleEvery == 0 {
					if len(model) == batch {
						model, shed = model[1:], shed+1
					}
					model = append(model, q)
				}
			case op < 17:
				syn := vec.NewMatrix(0, g.Dim())
				for i := 1 + rng.Intn(3); i > 0; i-- {
					syn.Append(d.TestOOD.Row(rng.Intn(d.TestOOD.Rows())))
				}
				want := 0
				for i := 0; i < syn.Rows() && len(model) < batch/2; i++ {
					model = append(model, syn.Row(i))
					want++
				}
				if got := o.RecordSynthetic(syn); got != want {
					t.Fatalf("step %d: RecordSynthetic accepted %d rows, model %d", step, got, want)
				}
			default:
				max := rng.Intn(batch + 2) // 0 drains everything, so does max > pending
				want := len(model)
				if max > 0 && max < want {
					want = max
				}
				rep, err := o.FixPendingLimitChecked(max)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Queries != want {
					t.Fatalf("step %d: fix batch took %d queries, model %d", step, rep.Queries, want)
				}
				model, fixed = model[want:], fixed+want
			}
			st := o.OnlineStats()
			if st.Pending != len(model) || st.ShedQueries != shed || st.FixedQueries != fixed || o.Pending() != len(model) {
				t.Fatalf("sample %d step %d: pending %d shed %d fixed %d, model %d %d %d",
					sampleEvery, step, st.Pending, st.ShedQueries, st.FixedQueries, len(model), shed, fixed)
			}
			if !ringHolds(&o.pending, model) {
				t.Fatalf("sample %d step %d: pending rows diverged from the model", sampleEvery, step)
			}
		}
		if shed == 0 || fixed == 0 {
			t.Fatalf("sample %d: the sequence never shed (%d) or fixed (%d)", sampleEvery, shed, fixed)
		}
	}
}

// Pooled searchers survive inserts and fix batches: concurrent searches
// keep drawing from the pool while the graph grows and is rewired (run
// under -race via RACE_PKGS), and a vertex inserted before a fix batch
// is found by a pooled searcher after it.
func TestPooledSearchersAcrossInsertAndFix(t *testing.T) {
	t.Run("full-precision", func(t *testing.T) { pooledSearchersAcrossInsertAndFix(t, false) })
	t.Run("pq", func(t *testing.T) { pooledSearchersAcrossInsertAndFix(t, true) })
}

func pooledSearchersAcrossInsertAndFix(t *testing.T, fused bool) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 10}}, LEx: 16})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 32, PrepEF: 40, TruthK: 20})
	if fused {
		if err := o.EnablePQ(PQConfig{M: 4, KS: 32}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if res, _ := o.Search(d.History.Row(i%d.History.Rows()), 5, 20); len(res) != 5 {
					t.Errorf("concurrent search returned %d results", len(res))
					return
				}
			}
		}(w)
	}
	for round := 0; round < 6; round++ {
		v := d.TestOOD.Row(round)
		id := o.Insert(v)
		o.FixPending()
		res, _ := o.Search(v, 1, 40)
		if len(res) != 1 || res[0].ID != id {
			t.Fatalf("round %d: inserted vertex %d not found after the fix batch: %v", round, id, res)
		}
	}
	close(stop)
	wg.Wait()
	if _, batches := o.Stats(); batches == 0 {
		t.Fatal("no fix batch ran")
	}
}

package repair

import (
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

// multiTrapGraph builds `traps` independent beam-width traps hanging off
// one entry cluster, stacked 200 units apart so they never interfere.
// For each trap's query, the narrow reachability beam (RFixL=20) fills
// up with that trap's decoy cloud and terminates before expanding the
// bridge, while the wide truth-prep beam walks the bridge to the true
// vicinity — so every trap query genuinely trips RFix through the
// fixer's own pipeline until its trap is repaired, and repairing one
// trap does nothing for the others. That is exactly a bursty-churn
// workload: a stream of queries whose vicinities the graph cannot yet
// navigate to.
//
// Per trap (offset y = 200·t):
//
//	A (entry, ~(0,0)) ——— decoy cloud (~(78,y)) ···×··· B (~(97,y))  ← query (100,y)
//	 \______________ bridge (0,y+80)→(90,y+60)→(95,y+20) ___________/
func multiTrapGraph(traps int) (*graph.Graph, [][]float32) {
	var rows [][]float32
	add := func(x, y float32) { rows = append(rows, []float32{x, y}) }
	for i := 0; i < 40; i++ { // A: ids 0..39
		add(float32(i%8)*0.3, float32(i/8)*0.3)
	}
	queries := make([][]float32, 0, traps)
	for t := 0; t < traps; t++ {
		y := float32(200 * t)
		for i := 0; i < 40; i++ { // decoy cloud
			add(78+float32(i%8)*0.3, y+float32(i/8)*0.3)
		}
		for _, b := range [][2]float32{{0, 80}, {30, 80}, {60, 80}, {90, 60}, {95, 20}} {
			add(b[0], y+b[1]) // bridge
		}
		for i := 0; i < 25; i++ { // B, the true vicinity
			add(95+float32(i%5), y+float32(i/5)*0.8)
		}
		queries = append(queries, []float32{100, y})
	}
	g := graph.New(vec.MatrixFromRows(rows), vec.L2)
	clique := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := lo; j < hi; j++ {
				if i != j {
					g.AddBaseEdge(uint32(i), uint32(j))
				}
			}
		}
	}
	both := func(u, v uint32) { g.AddBaseEdge(u, v); g.AddBaseEdge(v, u) }
	clique(0, 40)
	for t := 0; t < traps; t++ {
		cloudLo := 40 + 70*t
		bridgeLo := cloudLo + 40
		bLo := bridgeLo + 5
		clique(cloudLo, cloudLo+40)
		clique(bLo, bLo+25)
		both(39, uint32(cloudLo)) // A ↔ cloud
		both(38, uint32(cloudLo+1))
		// The bridge hangs off the far side of the cloud — NOT off the
		// entry — so the greedy descent always bottoms out among the decoys
		// first; a beam then only escapes over the bridge if it is wide
		// enough to keep the worse-distance bridge head in its frontier.
		both(uint32(cloudLo+39), uint32(bridgeLo))
		for i := 0; i < 4; i++ {
			both(uint32(bridgeLo+i), uint32(bridgeLo+i+1))
		}
		both(uint32(bridgeLo+4), uint32(bLo)) // bridge ↔ B
		both(uint32(bridgeLo+4), uint32(bLo+1))
	}
	g.EntryPoint = 0
	return g, queries
}

func trapFixer(traps, batch int, wal core.WAL) (*core.OnlineFixer, [][]float32) {
	g, qs := multiTrapGraph(traps)
	ix := core.New(g, core.Options{Rounds: []core.Round{{K: 20, RFix: true}}, LEx: 32, RFixL: 20})
	return core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: batch, WAL: wal}), qs
}

// The fault-injection A/B the controller exists for: under a burst of
// unreachable-vicinity queries, the adaptive controller must detect the
// navigability signal, tighten its cadence, and lose strictly less
// repair signal (sheds) than the fixed-cadence baseline — while ending
// with an unreachable rate no worse than the baseline's.
//
// Both sides run the identical workload on identical graphs in virtual
// time: queries arrive every 5 (virtual) ms for 2 s into a 16-slot
// buffer. The baseline drains on a blind 200 ms cadence; the adaptive
// side paces itself from each tick's plan, so once the first batch seeds
// the EWMA at ~0.4 it repairs at Interval/4 and stops overflowing the
// buffer.
func TestAdaptiveOutpacesFixedCadenceUnderChurn(t *testing.T) {
	const (
		traps        = 6
		interval     = 200 * time.Millisecond
		horizon      = 2 * time.Second
		arrivalEvery = 5 * time.Millisecond
	)
	fa, qa := trapFixer(traps, 16, nil)
	fb, qb := trapFixer(traps, 16, nil)
	// Dwell of an hour: once eager, the controller stays eager for the
	// whole (real-time ~instant) simulation — deterministic.
	c := New(0, fa, nil, Config{Interval: interval, Dwell: time.Hour})
	rng := testRNG()

	deliver := func(f *core.OnlineFixer, qs [][]float32, delivered *int, until time.Duration) {
		due := int(until / arrivalEvery)
		for i := *delivered; i < due; i++ {
			f.Search(qs[i%traps], 10, 20)
		}
		*delivered = due
	}

	// Adaptive: self-paced virtual clock.
	var ta time.Duration
	delivA := 0
	next := interval
	for ta+next <= horizon {
		ta += next
		deliver(fa, qa, &delivA, ta)
		next = c.tick(rng, discardLogf)
	}
	deliver(fa, qa, &delivA, horizon)

	// Baseline: blind fixed cadence.
	var tb time.Duration
	delivB := 0
	for tb+interval <= horizon {
		tb += interval
		deliver(fb, qb, &delivB, tb)
		fb.FixPending()
	}
	deliver(fb, qb, &delivB, horizon)

	sa, sb := fa.Signals(), fb.Signals()
	if sa.UnreachableEWMA == 0 && sb.UnreachableEWMA == 0 && sa.Batches == 0 {
		t.Fatal("trap workload never moved the unreachable signal; the A/B is vacuous")
	}
	st := c.Status()
	if st.Mode != "eager" {
		t.Fatalf("adaptive controller never went eager under churn: %+v (EWMA %v)", st, sa.UnreachableEWMA)
	}
	// Tight cadence ⇒ more, smaller batches than the baseline's blind
	// interval count...
	if want := uint64(horizon / interval); st.BatchesRun <= want {
		t.Fatalf("adaptive ran %d batches, want more than the baseline's %d", st.BatchesRun, want)
	}
	// ...which is what protects the repair signal: the baseline overflows
	// its 16-slot buffer every 200 ms window (40 arrivals), the adaptive
	// side stops shedding as soon as it tightens.
	if sa.Shed >= sb.Shed {
		t.Fatalf("adaptive shed %d repair queries, baseline %d — cadence never tightened", sa.Shed, sb.Shed)
	}
	// And the headline acceptance: unreachable rate after the burst is no
	// worse than the fixed cadence left it.
	if sa.UnreachableEWMA > sb.UnreachableEWMA+0.15 {
		t.Fatalf("adaptive unreachable EWMA %v worse than baseline %v", sa.UnreachableEWMA, sb.UnreachableEWMA)
	}
}

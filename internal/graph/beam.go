package graph

import (
	"context"
	"math"

	"ngfix/internal/vec"
)

// BeamEntry is one scored vertex in a Beam: eight bytes, so that the
// shifts that keep the array sorted move as little as possible.
type BeamEntry struct {
	Dist float32
	ref  uint32 // vertex id in the low bits, flags in the top two
}

const (
	expandedFlag = 1 << 31
	// deadFlag marks a tombstoned vertex: navigated through, never an
	// answer, and not counted toward the beam width.
	deadFlag = 1 << 30
	// maxBeamID is the largest vertex id a Beam can hold (ids above it
	// would collide with the flags).
	maxBeamID = deadFlag - 1
)

// ID returns the entry's vertex id.
func (x BeamEntry) ID() uint32 { return x.ref & maxBeamID }

// dead reports whether the entry's vertex is tombstoned.
func (x BeamEntry) dead() bool { return x.ref&deadFlag != 0 }

// Beam is the candidate list of Algorithm 1 as one array ordered by
// distance, each entry flagged once expanded. It replaces the algorithm's
// two heaps — a min-heap of candidates to expand and a bounded max-heap of
// the L best results — entry for entry:
//
//   - The window is the prefix up to and including the width-th live
//     entry (the whole array while fewer are live). Next expands the
//     closest unexpanded entry in the window, which is the candidate the
//     min-heap would pop, and stops where the heap loop breaks: the closest
//     unexpanded candidate lies past the width-th best result.
//   - An entry pushed out of the window is never expanded again, because
//     the window's edge only moves closer. The heap loop keeps such an
//     entry in its candidate heap but pops it only after the break.
//   - Dead entries stay in the array so the search navigates through them
//     but do not count toward the width, so tombstones cannot crowd live
//     answers out.
//
// The array holds up to keep ≥ width live entries. Those past the window
// are never expanded; they are what a compressed search reranks, so its
// rerank pool is the array's live prefix rather than a third heap.
//
// Equal distances keep the order they were pushed in: a newcomer goes
// after every entry at its distance. That is the heaps' admission rule — a
// full result heap takes only a strictly closer vertex — and on exact ties
// (duplicate rows) it reproduces the heaps' answers where ordering by id
// would not.
//
// The zero value is empty; Reset prepares it for a search.
type Beam struct {
	e      []BeamEntry
	staged []BeamEntry // Push's admitted newcomers, sorted before the merge
	width  int
	keep   int
	dead   int // tombstoned entries in e
	window int // entries up to and including the width-th live one
	cursor int // no unexpanded entry sits before this index
	// bound is the distance a newcomer must beat to be kept: the keep-th
	// live entry's once there are keep, +Inf before.
	bound float32
}

// Reset empties the beam for a search of the given width (L, at least 1)
// that retains keep live entries (at least width).
func (b *Beam) Reset(width, keep int) {
	width = max(width, 1)
	b.e = b.e[:0]
	b.width, b.keep = width, max(keep, width)
	b.dead, b.window, b.cursor = 0, 0, 0
	b.bound = float32(math.Inf(1))
}

// Push offers one hop's scored vertices, ids[i] at distance dists[i],
// tombstoned where dead (indexed by id; nil when nothing is) says so.
// A vertex is kept if it ranks among the keep best live entries, a dead
// one if it ranks before the keep-th live entry. An id must be offered at
// most once per search.
//
// Vertices that cannot beat the current bound cost one comparison. The
// rest — a handful per hop once the beam is full — are sorted among
// themselves and merged into the array in one pass from the back, instead
// of one binary search and one shift each.
func (b *Beam) Push(ids []uint32, dists []float32, dead []bool) {
	st := b.staged[:0]
	for i, d := range dists[:len(ids)] {
		if d < b.bound {
			id := ids[i]
			if id > maxBeamID {
				panic("graph: vertex id too large for the beam (limit 2^30-1)")
			}
			if dead != nil && dead[id] {
				id |= deadFlag
			}
			st = append(st, BeamEntry{Dist: d, ref: id})
		}
	}
	b.staged = st
	if len(st) == 0 {
		return
	}
	for i := 1; i < len(st); i++ { // stable insertion sort: ties keep push order
		x := st[i]
		j := i
		for ; j > 0 && st[j-1].Dist > x.Dist; j-- {
			st[j] = st[j-1]
		}
		st[j] = x
	}
	// Merge from the back: e[:i] are the entries not yet moved; each
	// newcomer, largest first, goes after every one of them at its
	// distance, and the block it passes shifts right in one copy.
	i := len(b.e)
	e := append(b.e, st...)
	for j := len(st) - 1; j >= 0; j-- {
		x := st[j]
		p := i
		for p > 0 && e[p-1].Dist > x.Dist {
			p--
		}
		copy(e[p+j+1:], e[p:i])
		e[p+j] = x
		if x.dead() {
			b.dead++
		}
		i = p
	}
	b.cursor = min(b.cursor, i)
	b.e = e
	b.settle()
}

// settle re-derives the window, drops everything past the keep-th live
// entry, and updates the admission bound.
func (b *Beam) settle() {
	e := b.e
	if b.dead == 0 {
		e = e[:min(len(e), b.keep)]
		b.window = min(len(e), b.width)
	} else {
		b.window = len(e)
		live := 0
		for i := range e {
			if e[i].dead() {
				continue
			}
			if live++; live == b.width {
				b.window = i + 1
			}
			if live == b.keep {
				for _, x := range e[i+1:] {
					if x.dead() {
						b.dead--
					}
				}
				e = e[:i+1]
				break
			}
		}
	}
	b.e = e
	if len(e)-b.dead >= b.keep {
		b.bound = e[len(e)-1].Dist
	}
}

// Next marks the closest unexpanded entry in the window expanded and
// returns its id; ok is false when the window holds none and the search
// is over.
func (b *Beam) Next() (id uint32, ok bool) {
	for ; b.cursor < b.window; b.cursor++ {
		if x := &b.e[b.cursor]; x.ref&expandedFlag == 0 {
			x.ref |= expandedFlag
			return x.ID(), true
		}
	}
	return 0, false
}

// Entries returns the beam's entries in order, aliasing its storage until
// the next Push or Reset.
func (b *Beam) Entries() []BeamEntry { return b.e }

// appendLive appends the first n live entries, closest first.
func (b *Beam) appendLive(dst []Result, n int) []Result {
	for i := 0; i < len(b.e) && n > 0; i++ {
		if x := b.e[i]; !x.dead() {
			dst = append(dst, Result{ID: x.ID(), Dist: x.Dist})
			n--
		}
	}
	return dst
}

// rowScorer is the full-precision Scorer: exact distances to the graph's
// rows, a whole hop in one gather-kernel call.
type rowScorer struct {
	m  *vec.Matrix
	qd vec.QueryDistancer
}

func (r *rowScorer) ScoreIDs(ids []uint32, out []float32) { r.qd.RowDistances(r.m, ids, out) }

// search is the beam loop behind every search of this package: Algorithm
// 1 from entry over the Beam. Each step scores a batch with one
// sc.ScoreIDs call and pushes it into the beam — the entry first, then
// the unvisited neighbours (base then extra edges, one contiguous range)
// of the closest unexpanded entry in the window — until the window holds
// no unexpanded entry. It keeps the keep best live entries in s.beam and
// returns the hop count, with the number of vertices scored in NDC.
//
// ctx (nil means never cancelled) is polled every cancelCheckEvery hops;
// once it is done the search stops where it stands with Stats.Truncated
// set, its beam holding the best entries found so far.
func (s *Searcher) search(ctx context.Context, sc Scorer, width, keep int, entry uint32) Stats {
	g := s.g
	var st Stats
	s.visited.Grow(g.Len())
	s.visited.Reset()
	s.visited.Visit(entry)
	s.beam.Reset(width, keep)
	if s.CollectVisited {
		s.Visited = s.Visited[:0]
	}
	ids := append(s.gatherIDs[:0], entry)
	for {
		if len(ids) > 0 {
			if cap(s.gatherD) < len(ids) {
				s.gatherD = make([]float32, len(ids)+16)
			}
			dists := s.gatherD[:len(ids)]
			sc.ScoreIDs(ids, dists)
			st.NDC += int64(len(ids))
			if s.CollectVisited {
				for i, v := range ids {
					s.Visited = append(s.Visited, Result{ID: v, Dist: dists[i]})
				}
			}
			s.beam.Push(ids, dists, g.deleted)
		}
		cur, ok := s.beam.Next()
		if !ok {
			break
		}
		if ctx != nil && st.Hops%cancelCheckEvery == 0 && ctx.Err() != nil {
			st.Truncated = true
			break
		}
		st.Hops++
		ids = s.visited.AppendUnvisited(ids[:0], g.adj[cur])
	}
	s.gatherIDs = ids
	return st
}

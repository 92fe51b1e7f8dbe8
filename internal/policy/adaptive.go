package policy

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// AdaptiveConfig controls the serving-path adaptive-ef policy.
type AdaptiveConfig struct {
	// ReservoirSize is how many recent queries are kept as the
	// calibration corpus (default 512).
	ReservoirSize int
	// MinSamples is the reservoir depth required before the first
	// calibration (default ReservoirSize/4).
	MinSamples int
	// RecalEvery triggers a recalibration after this many recorded
	// queries since the last one (default ReservoirSize).
	RecalEvery int
	// TargetRecall is the per-band recall calibration aims for against
	// the wide-ef reference answer (default 0.95).
	TargetRecall float64
	// Buckets is the number of similarity bands (default 3).
	Buckets int
	// CandidateEFs are the ef values a band may be assigned, ascending
	// (default K..200 step 30).
	CandidateEFs []int
	// K is the result size recall is measured at (default 10).
	K int
	// ProbeEF is the search-list width of the similarity probe
	// (default 16).
	ProbeEF int
	// TruthEF is the search-list width used to compute the reference
	// answers calibration measures recall against (default 2× the
	// largest candidate).
	TruthEF int
	// Metric is the vector space's metric (for the historical-query
	// index).
	Metric vec.Metric
	// Seed drives the deterministic history/calibration split.
	Seed int64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 512
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.ReservoirSize / 4
	}
	if c.MinSamples < 16 {
		c.MinSamples = 16
	}
	if c.RecalEvery <= 0 {
		c.RecalEvery = c.ReservoirSize
	}
	if c.TargetRecall == 0 {
		c.TargetRecall = 0.95
	}
	if c.Buckets <= 0 {
		c.Buckets = 3
	}
	if c.K <= 0 {
		c.K = 10
	}
	if len(c.CandidateEFs) == 0 {
		c.CandidateEFs = metrics.DefaultEFs(c.K, 30, 200)
	}
	if c.ProbeEF <= 0 {
		c.ProbeEF = 16
	}
	if c.TruthEF <= 0 {
		c.TruthEF = 2 * c.CandidateEFs[len(c.CandidateEFs)-1]
	}
	return c
}

// calibrated pairs an immutable policy with a pool of probers over its
// historical-query graph, so any number of request goroutines classify
// queries concurrently. Swapped wholesale on recalibration.
type calibrated struct {
	pol     *core.AdaptiveEF
	probers sync.Pool
}

// Adaptive picks a per-query ef by probing the query's distance to the
// nearest recently-served query (the paper's §7 "Query Similarities"
// observation: ef needed for a target recall tracks similarity to the
// historical workload). It self-calibrates from live traffic: served
// queries feed a reservoir; periodically the reservoir is split into
// history and calibration halves, the history half is indexed with a
// small HNSW, and each similarity band gets the smallest candidate ef
// reaching the recall target against a wide-ef reference answer.
//
// EFFor is wait-free against recalibration (atomic policy pointer);
// Record takes a small mutex around the reservoir only.
type Adaptive struct {
	cfg AdaptiveConfig

	// search computes reference answers during calibration. It must be
	// safe for concurrent use and bypass admission (the caller gates
	// calibration with TryAcquire instead).
	search func(q []float32, k, ef int) []graph.Result

	mu        sync.Mutex
	reservoir *vec.Matrix
	seen      int64 // lifetime recorded queries (reservoir-sampling basis)
	sinceCal  int
	rng       *rand.Rand

	cur         atomic.Pointer[calibrated]
	calibrating atomic.Bool
	recals      atomic.Int64
	deferrals   atomic.Int64
}

// NewAdaptive builds the policy. dim is the query dimensionality;
// search is the concurrent-safe reference searcher (typically the shard
// group's scatter-gather search).
func NewAdaptive(dim int, cfg AdaptiveConfig, search func(q []float32, k, ef int) []graph.Result) *Adaptive {
	c := cfg.withDefaults()
	return &Adaptive{
		cfg:       c,
		search:    search,
		reservoir: vec.NewMatrix(0, dim),
		rng:       rand.New(rand.NewSource(c.Seed)),
	}
}

// Ready reports whether a calibrated policy is installed.
func (a *Adaptive) Ready() bool { return a != nil && a.cur.Load() != nil }

// EFFor returns the calibrated ef for q plus the probe's NDC cost.
// ok is false until the first calibration lands (callers fall back to
// the request's ef). Safe for any number of concurrent callers.
func (a *Adaptive) EFFor(q []float32) (ef, probeNDC int, ok bool) {
	if a == nil {
		return 0, 0, false
	}
	c := a.cur.Load()
	if c == nil {
		return 0, 0, false
	}
	s := c.probers.Get().(*graph.Searcher)
	ef = c.pol.EFForWith(s, q)
	c.probers.Put(s)
	return ef, c.pol.ProbeEF(), true
}

// Buckets exposes the current policy's bands (nil until calibrated).
func (a *Adaptive) Buckets() (thresholds []float32, efs []int) {
	if a == nil {
		return nil, nil
	}
	c := a.cur.Load()
	if c == nil {
		return nil, nil
	}
	return c.pol.Buckets()
}

// Recalibrations returns how many calibrations have completed and how
// many were deferred because admission denied the background units.
func (a *Adaptive) Recalibrations() (done, deferred int64) {
	if a == nil {
		return 0, 0
	}
	return a.recals.Load(), a.deferrals.Load()
}

// Record feeds one served query into the reservoir (uniform reservoir
// sampling once full). It returns true when enough new traffic has
// accumulated that the caller should schedule MaybeRecalibrate.
func (a *Adaptive) Record(q []float32) (wantRecal bool) {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen++
	if a.reservoir.Rows() < a.cfg.ReservoirSize {
		a.reservoir.Append(q)
	} else if j := a.rng.Int63n(a.seen); j < int64(a.cfg.ReservoirSize) {
		copy(a.reservoir.Row(int(j)), q)
	}
	a.sinceCal++
	if a.reservoir.Rows() < a.cfg.MinSamples {
		return false
	}
	if a.cur.Load() == nil {
		// First calibration: fire as soon as the floor is met.
		return !a.calibrating.Load()
	}
	return a.sinceCal >= a.cfg.RecalEvery && !a.calibrating.Load()
}

// MaybeRecalibrate runs one calibration pass if none is in flight.
// acquire gates the background work on admission (nil means ungated);
// when it returns ok=false the pass is deferred — counters note it and
// the next Record past the threshold re-triggers. Intended to run on a
// background goroutine; EFFor keeps serving the old policy throughout.
func (a *Adaptive) MaybeRecalibrate(acquire func() (release func(), ok bool)) bool {
	if a == nil || !a.calibrating.CompareAndSwap(false, true) {
		return false
	}
	defer a.calibrating.Store(false)

	if acquire != nil {
		release, ok := acquire()
		if !ok {
			a.deferrals.Add(1)
			return false
		}
		defer release()
	}

	a.mu.Lock()
	rows := a.reservoir.Rows()
	if rows < a.cfg.MinSamples {
		a.mu.Unlock()
		return false
	}
	corpus := a.reservoir.Clone()
	a.sinceCal = 0
	// Deterministic shuffle for the history/calibration split.
	perm := a.rng.Perm(rows)
	a.mu.Unlock()

	half := rows / 2
	hist := vec.NewMatrix(0, corpus.Dim())
	calib := vec.NewMatrix(0, corpus.Dim())
	for i, p := range perm {
		if i < half {
			hist.Append(corpus.Row(p))
		} else {
			calib.Append(corpus.Row(p))
		}
	}

	pol := a.calibrate(hist, calib)
	if pol == nil {
		return false
	}
	c := &calibrated{pol: pol}
	g := pol.HistGraph()
	c.probers.New = func() interface{} { return graph.NewSearcher(g) }
	a.cur.Store(c)
	a.recals.Add(1)
	return true
}

// calibrate fits the similarity bands with core.CalibrateBands,
// measuring recall against reference answers from the wide-ef search —
// the concurrent group search, not a single-fixer searcher.
func (a *Adaptive) calibrate(hist, calib *vec.Matrix) *core.AdaptiveEF {
	truth := make([][]uint32, calib.Rows())
	for qi := range truth {
		truth[qi] = graph.IDs(a.search(calib.Row(qi), a.cfg.K, a.cfg.TruthEF))
	}
	return core.CalibrateBands(hist, calib, a.cfg.Metric, core.AdaptiveConfig{
		Buckets: a.cfg.Buckets, TargetRecall: a.cfg.TargetRecall,
		CandidateEFs: a.cfg.CandidateEFs, K: a.cfg.K, ProbeEF: a.cfg.ProbeEF,
	}, func(qi, ef int) float64 {
		return metrics.Recall(graph.IDs(a.search(calib.Row(qi), a.cfg.K, ef)), truth[qi])
	})
}

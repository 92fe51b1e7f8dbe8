// Package server exposes an online-fixed NGFix index over HTTP with a
// small JSON API — the deployment shape of the paper's production story:
// the index serves searches while continuously repairing itself with the
// query stream it observes.
//
//	POST /v1/search    {"vector": [...], "k": 10, "ef": 100}
//	POST /v1/insert    {"vector": [...]}
//	POST /v1/delete    {"id": 123}
//	POST /v1/fix       {}                      — drain & fix recorded queries
//	POST /v1/purge     {"k": 30, "ef": 200}    — unlink tombstones + repair
//	POST /v1/snapshot  {}                      — force a durable snapshot
//	GET  /v1/stats
//	GET  /healthz                              — liveness (200 while the process runs)
//	GET  /readyz                               — readiness (503 until the index is
//	                                             loaded/replayed, while durability
//	                                             is degraded, and during drain)
//
// Robustness: every handler runs behind panic recovery (a bad request
// cannot kill the process) and http.MaxBytesReader (a huge body cannot
// OOM it); a body is one JSON value with known fields and nothing but
// whitespace after it, or a 400 (see codec.go); wrong methods get 405
// with an Allow header; response-encoding failures are logged through an
// injectable logger so operators see malformed-response incidents.
//
// Durability honesty: when the fixer has a WAL and a journal append
// fails, the mutation is applied in memory but answered with 500 instead
// of an ack, and /readyz turns 503 ("durability degraded") until a
// snapshot succeeds — so clients and load balancers learn about at-risk
// writes immediately instead of after a crash.
//
// Overload protection: when an admission.Controller is wired in, every
// index-touching request (search, insert, delete, fix, purge) acquires
// weighted admission first — search cost scales with ef, so one huge
// query counts like several ordinary ones. Requests beyond capacity wait
// in a bounded FIFO queue; past that the server sheds with 429 and a
// Retry-After hint instead of stacking goroutines. SearchTimeout bounds
// both the queue wait and the search itself: a search whose budget fires
// mid-beam returns the best results found so far with "truncated": true,
// and a disconnected client stops burning CPU within a few hops. Under
// queue pressure the effective ef shrinks toward EFFloor (reported as
// "clamped" in the response and counted on /v1/stats) — recall degrades
// gracefully before availability does.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/repair"
	"ngfix/internal/replica"
	"ngfix/internal/shard"
	"ngfix/internal/shard/reshard"
	"ngfix/internal/vec"
)

// DefaultMaxBodyBytes caps request bodies when Server.MaxBodyBytes is
// unset: generous for high-dimensional vectors, far below OOM territory.
const DefaultMaxBodyBytes int64 = 8 << 20

// Admission costs for fixed-work endpoints, in the limiter's units (one
// unit ≈ one standard search). Mutations are short lock-bound sections;
// fix and purge batches hold the write lock much longer.
const (
	mutationCost    = 1
	maintenanceCost = 4
)

// Topology is one complete serving stack: everything whose shape
// follows the shard count. A live reshard replaces all of it at once, so
// it is built whole (by the caller's assembler) and swapped whole (by
// Install); nothing in it is mutated after installation.
//
// A follower's topology (NewFollower) holds only Replicas and a leader's
// never does; dim, rows, shards and search are the only places that tell
// the two apart.
type Topology struct {
	// Group fronts the shard fixers: searches scatter-gather, mutations
	// route by id. Nil on a follower.
	Group *shard.Group
	// Stores are the per-shard persistence stores, which make this server
	// a replication leader: followers pull snapshots and WAL segments over
	// /v1/replicate/*. Nil leaves those endpoints answering 501.
	Stores []*persist.Store
	// Repair is the adaptive repair fleet: /v1/stats gains per-shard
	// controller status, slow-query lines carry the repair mode a query
	// contended with, and /readyz reports controllers wedged on
	// consecutive fix failures. Nil when background repair is off.
	Repair *repair.Fleet
	// Registries are the per-shard metric registries (const-labeled
	// shard="<i>") that /metrics merges in after the server's own.
	Registries []*obs.Registry
	// Replicas are a follower's per-shard read replicas, the whole index
	// it serves. Nil on a leader.
	Replicas *replica.Set
}

// dim is the served vector dimensionality; 0 on a follower none of whose
// replicas has bootstrapped yet.
func (t *Topology) dim() int {
	if t.Group == nil {
		return t.Replicas.Dim()
	}
	return t.Group.Dim()
}

// rows is the served vector count, the bound on a request's ef.
func (t *Topology) rows() int {
	if t.Group == nil {
		return t.Replicas.Len()
	}
	return t.Group.Len()
}

// shards is the scatter width a search is costed at.
func (t *Topology) shards() int {
	if t.Group == nil {
		return t.Replicas.Shards()
	}
	return t.Group.Shards()
}

// search runs one read with at most parallel per-shard searches at once;
// stale reports that replica state answered (always on a follower, never
// on a leader).
func (t *Topology) search(ctx context.Context, q []float32, k, ef, parallel int) ([]graph.Result, graph.Stats, bool) {
	if t.Group == nil {
		res, st := t.Replicas.Search(ctx, q, k, ef, parallel)
		return res, st, true
	}
	res, st := t.Group.SearchCtx(ctx, q, k, ef, parallel)
	return res, st, false
}

// Server wires a shard group (one or many online fixers) to an
// http.Handler. Searches scatter to every shard and gather a global
// top-k; mutations route to the owning shard; /v1/stats reports both
// the aggregate and the per-shard breakdown.
type Server struct {
	// topo is the serving topology, swapped whole by Install. Every
	// handler loads it once per request, so a request sees one coherent
	// stack end to end. Mutations that raced a reshard's swap get
	// shard.ErrResharding from the retired (forever paused) group and
	// retry against the fresh pointer.
	topo atomic.Pointer[Topology]
	mux  *http.ServeMux
	// DefaultK / DefaultEF apply when a search request omits them.
	DefaultK, DefaultEF int
	// Logger receives malformed-response incidents and handler panics.
	// Nil uses the process-default logger.
	Logger *log.Logger
	// MaxBodyBytes caps request bodies (DefaultMaxBodyBytes when 0).
	MaxBodyBytes int64
	// SnapshotFunc backs POST /v1/snapshot; when nil the endpoint
	// reports 501 Not Implemented.
	SnapshotFunc func() error
	// Admission, when non-nil, governs every index-touching request:
	// bounded concurrency, bounded queueing, 429 shedding past that.
	Admission *admission.Controller
	// SearchTimeout is the per-request server budget: it bounds the
	// admission wait for every governed request and the beam search
	// itself (which truncates when it fires). 0 disables the budget;
	// client disconnects still cancel searches either way.
	SearchTimeout time.Duration
	// EFFloor is the lowest effective ef the pressure-degradation policy
	// may clamp a search to; 0 disables clamping.
	EFFloor int
	// SlowQueries, when non-nil, logs every search at or over its
	// threshold with the fields needed to explain it (ndc, hops, clamping,
	// truncation, duration).
	SlowQueries *obs.SlowQueryLog
	// ReshardFunc, when non-nil, backs POST /v1/reshard: it kicks off a
	// live N→2N split in the background and returns the topology change,
	// or ErrReshardInProgress when one is already running. Nil answers
	// 501 (resharding needs persistence wiring).
	ReshardFunc func() (from, to int, err error)
	// ReshardProgress, when non-nil, reports the current (or most
	// recent) reshard for /v1/stats and the ngfix_reshard_* metric
	// families.
	ReshardProgress func() reshard.Progress

	ready     atomic.Bool
	draining  atomic.Bool
	truncated atomic.Int64
	clamped   atomic.Int64

	// metrics/baseRegs are set once by EnableMetrics before serving; nil
	// means uninstrumented (observers are nil-safe). /metrics serves the
	// merged exposition of the server's own and the process-global
	// shard="all" registries in baseRegs plus the topology's per-shard
	// Registries.
	metrics  *serverMetrics
	baseRegs []*obs.Registry
}

// ErrReshardInProgress is what ReshardFunc returns while a split is
// already running; /v1/reshard maps it to 409 Conflict.
var ErrReshardInProgress = errors.New("server: a reshard is already in progress")

// New builds a Server around a single online fixer — the unsharded
// deployment, identical to NewSharded(shard.Single(fixer)).
func New(fixer *core.OnlineFixer) *Server {
	return NewSharded(shard.Single(fixer))
}

// NewSharded builds a Server around a shard group. The server starts
// not ready: call SetReady(true) once every shard is loaded/replayed
// and the listener is up, so /readyz tells load balancers the truth.
func NewSharded(group *shard.Group) *Server {
	s := newServer(&Topology{Group: group})
	// Fixed-work endpoints go through the governed middleware.
	s.mux.HandleFunc("/v1/insert", s.method(http.MethodPost, s.governed(mutationCost, s.handleInsert)))
	s.mux.HandleFunc("/v1/delete", s.method(http.MethodPost, s.governed(mutationCost, s.handleDelete)))
	s.mux.HandleFunc("/v1/fix", s.method(http.MethodPost, s.governed(maintenanceCost, s.handleFix)))
	s.mux.HandleFunc("/v1/purge", s.method(http.MethodPost, s.governed(maintenanceCost, s.handlePurge)))
	s.mux.HandleFunc("/v1/snapshot", s.method(http.MethodPost, s.handleSnapshot))
	s.mux.HandleFunc("/v1/reshard", s.method(http.MethodPost, s.handleReshard))
	s.mux.HandleFunc("/v1/stats", s.method(http.MethodGet, s.handleStats))
	s.mux.HandleFunc("/v1/replicate/status", s.method(http.MethodGet, s.handleReplicateStatus))
	s.mux.HandleFunc("/v1/replicate/snapshot", s.method(http.MethodGet, s.handleReplicateSnapshot))
	s.mux.HandleFunc("/v1/replicate/wal", s.method(http.MethodGet, s.handleReplicateWAL))
	s.mux.HandleFunc("/readyz", s.method(http.MethodGet, s.handleReadyz))
	return s
}

// newServer builds the part leader and follower share: the topology, the
// search route, liveness and metrics.
func newServer(t *Topology) *Server {
	s := &Server{mux: http.NewServeMux(), DefaultK: 10, DefaultEF: 100}
	s.topo.Store(t)
	// Search governs itself: its admission cost depends on the decoded ef.
	s.mux.HandleFunc("/v1/search", s.method(http.MethodPost, s.handleSearch))
	s.mux.HandleFunc("/healthz", s.method(http.MethodGet, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.method(http.MethodGet, s.handleMetrics))
	return s
}

// Topology returns the serving stack currently installed (wiring and
// shutdown read it; a live reshard may have replaced it since startup).
func (s *Server) Topology() Topology { return *s.topo.Load() }

// Install makes t the serving topology with one atomic store — the
// startup wiring and the reshard cutover's serving-path flip alike.
// From the moment it returns, every request sees t's group, stores,
// repair fleet, registries and replicas, never a mix with the previous
// stack's.
func (s *Server) Install(t Topology) {
	s.topo.Store(&t)
}

// SetStores installs stores as the current topology's per-shard stores,
// the ones the replication endpoints serve from. A wiring-time shorthand
// for Install with only Stores changed.
func (s *Server) SetStores(stores []*persist.Store) {
	t := s.Topology()
	t.Stores = stores
	s.Install(t)
}

// SetReady flips what /readyz reports. Serving handlers are unaffected:
// readiness is advisory routing information for load balancers.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// StartDrain marks the server draining: /readyz turns 503 so balancers
// stop routing here, while in-flight and straggler requests still get
// served. Call it right before http.Server.Shutdown.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.ready.Store(false)
}

// ServeHTTP implements http.Handler with the protective middleware:
// request bodies are size-capped, and a panicking handler answers 500
// instead of killing the process.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				s.httpError(sw, http.StatusInternalServerError, errors.New("internal server error"))
			}
		}
	}()
	if r.Body != nil {
		max := s.MaxBodyBytes
		if max <= 0 {
			max = DefaultMaxBodyBytes
		}
		r.Body = http.MaxBytesReader(sw, r.Body, max)
	}
	s.mux.ServeHTTP(sw, r)
}

// statusWriter tracks whether a response has started, so panic recovery
// knows if it can still write a clean 500.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// method enforces the HTTP verb, answering 405 with an Allow header
// otherwise.
func (s *Server) method(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != verb {
			w.Header().Set("Allow", verb)
			s.httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s required", verb))
			return
		}
		h(w, r)
	}
}

// governed is the admission middleware for fixed-cost endpoints: acquire
// cost units (waiting in the bounded FIFO queue, within the request
// budget) before running the handler, shed with 429 otherwise. A nil
// Admission controller makes it a pass-through.
func (s *Server) governed(cost int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Admission == nil {
			h(w, r)
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		release, err := s.Admission.Acquire(ctx, cost)
		if err != nil {
			s.shedResponse(w, err)
			return
		}
		defer release()
		h(w, r.WithContext(ctx))
	}
}

// requestContext derives the per-request deadline from the server budget
// on top of the connection context (which already cancels when the
// client disconnects).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.SearchTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.SearchTimeout)
}

// shedResponse answers an admission failure: 429 with a Retry-After hint
// so well-behaved clients back off instead of hammering a saturated
// server. Queue-wait budget expiry gets the same answer — from the
// client's point of view both mean "overloaded right now, come back".
func (s *Server) shedResponse(w http.ResponseWriter, err error) {
	pressure := 0.0
	if s.Admission != nil {
		pressure = s.Admission.Pressure()
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(pressure)))
	s.httpError(w, http.StatusTooManyRequests, fmt.Errorf("overloaded: %v", err))
}

// maxRetryAfterSeconds caps the backoff hint: past this, a longer wait
// stops helping the server and only hurts the client.
const maxRetryAfterSeconds = 120

// retryAfterSeconds hints how long a shed client should wait. The base
// is roughly one server budget (at least a second); it scales with queue
// pressure — a full queue quadruples the hint — so clients back off
// harder exactly when retries are least likely to land, instead of every
// shed client returning in lockstep after a constant interval.
func (s *Server) retryAfterSeconds(pressure float64) int {
	base := 1.0
	if s.SearchTimeout > 0 {
		base = math.Ceil(s.SearchTimeout.Seconds())
		if base < 1 {
			base = 1
		}
	}
	if pressure < 0 {
		pressure = 0
	} else if pressure > 1 {
		pressure = 1
	}
	secs := int(math.Ceil(base * (1 + 3*pressure)))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// SearchRequest is the /v1/search body. K and EF are pointers so the
// server can tell "omitted, use the default" from an explicit bad value:
// strict validation rejects k ≤ 0, ef ≤ 0, ef < k, and ef beyond the
// graph size with 400 instead of silently clamping deep in the search
// stack.
type SearchRequest struct {
	Vector []float32 `json:"vector"`
	K      *int      `json:"k,omitempty"`
	EF     *int      `json:"ef,omitempty"`
}

// IntPtr is a convenience for building requests with explicit k/ef.
func IntPtr(v int) *int { return &v }

// SearchHit is one result row.
type SearchHit struct {
	ID   uint32  `json:"id"`
	Dist float32 `json:"dist"`
}

// SearchResponse is the /v1/search reply.
type SearchResponse struct {
	Results []SearchHit `json:"results"`
	NDC     int64       `json:"ndc"`
	// ADC counts compressed-domain score evaluations when the index
	// serves through the fused PQ path (NDC then counts only the exact
	// rerank). Omitted on full-precision serving, so servers without PQ
	// keep their exact legacy payloads.
	ADC int64 `json:"adc,omitempty"`
	// Truncated reports that the server budget (or the client's
	// disconnect) stopped the search early: Results is the best found so
	// far, not the full beam-search answer.
	Truncated bool `json:"truncated,omitempty"`
	// EFUsed is the search-list size actually run; Clamped marks that
	// overload pressure shrank it below the requested (or default) ef.
	EFUsed  int  `json:"efUsed"`
	Clamped bool `json:"clamped,omitempty"`
	// Stale marks that the answer came from a follower's read replicas
	// instead of the primaries: correct as of the replicas' applied
	// positions, possibly behind the leader by its replication lag.
	Stale bool `json:"stale,omitempty"`
}

// InsertRequest is the /v1/insert body.
type InsertRequest struct {
	Vector []float32 `json:"vector"`
}

// InsertResponse is the /v1/insert reply.
type InsertResponse struct {
	ID uint32 `json:"id"`
}

// DeleteRequest is the /v1/delete body.
type DeleteRequest struct {
	ID uint32 `json:"id"`
}

// DeleteResponse is the /v1/delete reply.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// FixResponse is the /v1/fix reply.
type FixResponse struct {
	Queries    int `json:"queries"`
	NGFixEdges int `json:"ngfixEdges"`
	RFixEdges  int `json:"rfixEdges"`
}

// PurgeRequest is the /v1/purge body.
type PurgeRequest struct {
	K  int `json:"k,omitempty"`
	EF int `json:"ef,omitempty"`
}

// PurgeResponse is the /v1/purge reply.
type PurgeResponse struct {
	Purged       int `json:"purged"`
	EdgesRemoved int `json:"edgesRemoved"`
	RepairEdges  int `json:"repairEdges"`
}

// SnapshotResponse is the /v1/snapshot reply.
type SnapshotResponse struct {
	OK bool `json:"ok"`
}

// AdmissionStatsResponse is the overload-protection block of /v1/stats.
type AdmissionStatsResponse struct {
	Capacity   int     `json:"capacity"`
	InUse      int     `json:"inUse"`
	Queued     int     `json:"queued"`
	QueueDepth int     `json:"queueDepth"`
	MaxQueued  int     `json:"maxQueued"`
	Pressure   float64 `json:"pressure"`
	Admitted   uint64  `json:"admitted"`
	Shed       uint64  `json:"shed"`
	TimedOut   uint64  `json:"timedOut"`
	// Reclaimed counts requests granted capacity concurrently with their
	// context ending: the units went back and the client saw 429, so they
	// are in neither Admitted nor TimedOut.
	Reclaimed uint64 `json:"reclaimed"`
}

// PQStatsResponse is the compressed-serving block of /v1/stats: the
// quantizer shape, the resident-memory accounting (what the fused path
// keeps in heap versus what full-precision vectors would occupy), and
// the served work split into navigation (ADC) and rerank (NDC).
type PQStatsResponse struct {
	M                 int   `json:"m"`
	KS                int   `json:"ks"`
	RerankFactor      int   `json:"rerankFactor"`
	Rows              int   `json:"rows"`
	CodeBytes         int64 `json:"codeBytes"`
	CodebookBytes     int64 `json:"codebookBytes"`
	TierResidentBytes int64 `json:"tierResidentBytes"`
	ResidentBytes     int64 `json:"residentBytes"`
	FullVectorBytes   int64 `json:"fullVectorBytes"`
	Searches          int64 `json:"searches"`
	ADCLookups        int64 `json:"adcLookups"`
	RerankNDC         int64 `json:"rerankNDC"`
	Truncated         int64 `json:"truncated"`
}

// ShardStatsResponse is one shard's slice of /v1/stats.
type ShardStatsResponse struct {
	Shard        int    `json:"shard"`
	Vectors      int    `json:"vectors"`
	Live         int    `json:"live"`
	ExtraEdges   int    `json:"extraEdges"`
	PendingFix   int    `json:"pendingFix"`
	FixedQueries int    `json:"fixedQueries"`
	FixBatches   int    `json:"fixBatches"`
	ShedQueries  int    `json:"shedQueries"`
	WALErrors    int    `json:"walErrors"`
	LastWALError string `json:"lastWALError,omitempty"`
}

// StatsResponse is the /v1/stats reply. Graph and fixer numbers are the
// cross-shard aggregate; PerShard breaks them down when the index runs
// more than one shard.
type StatsResponse struct {
	Vectors      int     `json:"vectors"`
	Live         int     `json:"live"`
	Dim          int     `json:"dim"`
	Metric       string  `json:"metric"`
	AvgDegree    float64 `json:"avgDegree"`
	SizeBytes    int64   `json:"sizeBytes"`
	BaseEdges    int     `json:"baseEdges"`
	ExtraEdges   int     `json:"extraEdges"`
	PendingFix   int     `json:"pendingFix"`
	FixedQueries int     `json:"fixedQueries"`
	FixBatches   int     `json:"fixBatches"`
	ShedQueries  int     `json:"shedQueries"`
	WALErrors    int     `json:"walErrors"`
	LastWALError string  `json:"lastWALError,omitempty"`
	// Overload counters: searches that returned partial results because
	// their budget fired, and searches whose ef was shrunk by pressure.
	TruncatedSearches int64 `json:"truncatedSearches"`
	ClampedSearches   int64 `json:"clampedSearches"`
	// Admission is present when an overload controller is configured.
	Admission *AdmissionStatsResponse `json:"admission,omitempty"`
	// Shards is the shard count; PerShard is present when it exceeds 1
	// (a single-shard response stays shaped exactly like the unsharded
	// server's).
	Shards   int                  `json:"shards"`
	PerShard []ShardStatsResponse `json:"perShard,omitempty"`
	// RepairMode is the repair fleet's aggregate mode (backoff |
	// steady) and Repair its per-shard controller status — mode, last
	// trigger reason, batch/defer/shrink counters, admission cost paid.
	// Present when the adaptive repair controller is running.
	RepairMode string          `json:"repairMode,omitempty"`
	Repair     []repair.Status `json:"repair,omitempty"`
	// PQ is the compressed-serving block, aggregated across shards.
	// Present only when the index serves through the fused PQ path; a
	// full-precision server's payload is byte-identical to before PQ
	// serving existed.
	PQ *PQStatsResponse `json:"pq,omitempty"`
	// Reshard is the live (or most recently finished/failed) N→2N
	// split's progress. Present only while one is running or after one
	// ran this process lifetime; a server that never resharded keeps its
	// exact prior payload.
	Reshard *reshard.Progress `json:"reshard,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	topo := s.topo.Load()
	var req SearchRequest
	if !s.decode(w, r, topo, &req) {
		return
	}
	if status, err := checkVector(topo, req.Vector); err != nil {
		s.httpError(w, status, err)
		return
	}
	k, ef, err := s.searchParams(topo, req)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	requestedEF := ef

	ctx, cancel := s.requestContext(r)
	defer cancel()

	shards := topo.shards()
	parallel := shards
	clamped := false
	clampedBy := obs.ClampNone
	if s.Admission != nil {
		// Budget clamp first: scatter cost scales with the shard count, so
		// an ef that fit the capacity unsharded can exceed it fanned out.
		// Clamping here (and reporting it) beats Acquire silently capping
		// the cost while every shard still runs the full-width beam.
		if max := s.Admission.MaxEF(shards); max >= k && ef > max {
			ef, clamped, clampedBy = max, true, obs.ClampBudget
			s.clamped.Add(1)
		}
		// Then degrade under pressure: a clamped search asks for fewer
		// cost units, so quality reduction directly raises throughput.
		if eff, cl := s.Admission.EffectiveEF(ef, s.EFFloor); cl {
			ef, clampedBy = eff, obs.ClampAdmission
			if !clamped {
				clamped = true
				s.clamped.Add(1)
			}
		}
		cost := s.Admission.SearchCostN(ef, shards)
		release, err := s.Admission.Acquire(ctx, cost)
		if err != nil {
			s.metrics.observeSearch(outcomeShed, time.Since(start))
			s.shedResponse(w, err)
			return
		}
		defer release()
		// The granted units double as the fan-out budget: each unit funds
		// roughly one concurrent per-shard beam, so a cheap (clamped)
		// request cannot occupy every shard at once.
		if cost < parallel {
			parallel = cost
		}
	}

	res, st, stale := topo.search(ctx, req.Vector, k, ef, parallel)
	if st.Truncated {
		s.truncated.Add(1)
	}

	dur := time.Since(start)
	outcome := outcomeOK
	switch {
	case st.Truncated:
		outcome = outcomeTruncated
	case clamped:
		outcome = outcomeClamped
	}
	s.metrics.observeSearch(outcome, dur)
	if s.SlowQueries.Observe(obs.SlowQuery{
		ID: s.SlowQueries.NextID(), K: k, EF: requestedEF, EFUsed: ef,
		NDC: st.NDC, ADC: st.ADCLookups, Hops: st.Hops,
		Truncated: st.Truncated, Clamped: clamped, ClampedBy: clampedBy,
		Repair: topo.repairMode(), Reshard: s.reshardAttr(), Duration: dur,
	}) {
		s.metrics.observeSlowQuery()
	}
	resp := SearchResponse{
		NDC: st.NDC, ADC: st.ADCLookups, Truncated: st.Truncated,
		EFUsed: ef, Clamped: clamped, Stale: stale,
		Results: make([]SearchHit, len(res)),
	}
	for i, h := range res {
		resp.Results[i] = SearchHit{ID: h.ID, Dist: h.Dist}
	}
	s.writeJSON(w, resp)
}

// searchParams resolves and strictly validates k and ef. Omitted values
// take the server defaults; explicit values must make sense — k ≥ 1,
// ef ≥ k, and k and ef no larger than the graph itself (a bigger list
// cannot improve recall, it only burns a bounded-capacity admission
// slot).
func (s *Server) searchParams(topo *Topology, req SearchRequest) (k, ef int, err error) {
	n := topo.rows()
	k = s.DefaultK
	if req.K != nil {
		if *req.K <= 0 {
			return 0, 0, fmt.Errorf("k must be at least 1, got %d", *req.K)
		}
		if n > 0 && *req.K > n {
			return 0, 0, fmt.Errorf("k (%d) exceeds the graph size (%d vectors)", *req.K, n)
		}
		k = *req.K
	}
	ef = s.DefaultEF
	if ef < k {
		ef = k
	}
	if req.EF != nil {
		if *req.EF <= 0 {
			return 0, 0, fmt.Errorf("ef must be at least 1, got %d", *req.EF)
		}
		if *req.EF < k {
			return 0, 0, fmt.Errorf("ef (%d) must be at least k (%d)", *req.EF, k)
		}
		if n > 0 && *req.EF > n {
			return 0, 0, fmt.Errorf("ef (%d) exceeds the graph size (%d vectors)", *req.EF, n)
		}
		ef = *req.EF
	}
	return k, ef, nil
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	topo := s.topo.Load()
	var req InsertRequest
	if !s.decode(w, r, topo, &req) {
		return
	}
	if status, err := checkVector(topo, req.Vector); err != nil {
		s.httpError(w, status, err)
		return
	}
	var id uint32
	err := s.retryResharding(r.Context(), topo, func(g *shard.Group) error {
		var err error
		id, err = g.InsertChecked(req.Vector)
		return err
	})
	if errors.Is(err, shard.ErrResharding) {
		s.reshardBusy(w, err)
		return
	}
	if err != nil {
		// Applied in memory but not journaled: refuse the ack so the
		// client knows the write is at risk until the next snapshot.
		// Retrying after recovery inserts a second copy (ids are
		// append-only); see README "Operations".
		s.httpError(w, http.StatusInternalServerError,
			fmt.Errorf("insert applied as id %d but not journaled (durability degraded): %v", id, err))
		return
	}
	s.writeJSON(w, InsertResponse{ID: id})
}

// retryResharding runs fn against the request's topology, retrying while
// the reshard cutover gate refuses mutations. The gate closes for one
// bounded drain window; a retired group keeps refusing forever, so each
// retry re-loads the topology and lands on the freshly installed one the
// moment the cutover commits. Bounded by the request context — a client
// that gives up mid-window gets the refusal.
func (s *Server) retryResharding(ctx context.Context, topo *Topology, fn func(g *shard.Group) error) error {
	for {
		err := fn(topo.Group)
		if !errors.Is(err, shard.ErrResharding) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(2 * time.Millisecond):
		}
		topo = s.topo.Load()
	}
}

// reshardBusy answers a mutation whose request budget expired inside the
// cutover window: 503 with a short Retry-After — the window is bounded,
// so "come back in a second" is the truth.
func (s *Server) reshardBusy(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	s.httpError(w, http.StatusServiceUnavailable, err)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	topo := s.topo.Load()
	var req DeleteRequest
	if !s.decode(w, r, topo, &req) {
		return
	}
	var deleted bool
	err := s.retryResharding(r.Context(), topo, func(g *shard.Group) error {
		var err error
		deleted, err = g.DeleteChecked(req.ID)
		return err
	})
	if errors.Is(err, shard.ErrResharding) {
		s.reshardBusy(w, err)
		return
	}
	if errors.Is(err, core.ErrUnknownID) {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("id %d out of range", req.ID))
		return
	}
	if err != nil {
		s.httpError(w, http.StatusInternalServerError,
			fmt.Errorf("delete %d applied but not journaled (durability degraded): %v", req.ID, err))
		return
	}
	s.writeJSON(w, DeleteResponse{Deleted: deleted})
}

func (s *Server) handleFix(w http.ResponseWriter, r *http.Request) {
	var rep core.FixReport
	err := s.retryResharding(r.Context(), s.topo.Load(), func(g *shard.Group) error {
		var err error
		rep, err = g.FixPendingChecked()
		return err
	})
	if errors.Is(err, shard.ErrResharding) {
		s.reshardBusy(w, err)
		return
	}
	if err != nil {
		s.httpError(w, http.StatusInternalServerError,
			fmt.Errorf("fix batch applied (%d queries) but not journaled (durability degraded): %v", rep.Queries, err))
		return
	}
	s.writeJSON(w, FixResponse{Queries: rep.Queries, NGFixEdges: rep.NGFixEdges, RFixEdges: rep.RFixEdges})
}

func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) {
	topo := s.topo.Load()
	var req PurgeRequest
	if !s.decode(w, r, topo, &req) {
		return
	}
	var rep core.PurgeReport
	err := s.retryResharding(r.Context(), topo, func(g *shard.Group) error {
		var err error
		rep, err = g.PurgeAndRepair(req.K, req.EF)
		return err
	})
	if errors.Is(err, shard.ErrResharding) {
		s.reshardBusy(w, err)
		return
	}
	s.writeJSON(w, PurgeResponse{Purged: rep.Purged, EdgesRemoved: rep.EdgesRemoved, RepairEdges: rep.RepairEdges})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.SnapshotFunc == nil {
		s.httpError(w, http.StatusNotImplemented, errors.New("persistence not configured (start with -snapshot-dir)"))
		return
	}
	if err := s.SnapshotFunc(); err != nil {
		if errors.Is(err, shard.ErrResharding) {
			// A snapshot seals generations the reshard is streaming from;
			// refusing for the bounded cutover window beats racing it.
			s.reshardBusy(w, err)
			return
		}
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("snapshot failed: %v", err))
		return
	}
	s.writeJSON(w, SnapshotResponse{OK: true})
}

// ReshardResponse is the /v1/reshard reply: the topology change just
// kicked off. The split runs in the background; poll /v1/stats (or the
// ngfix_reshard_* metrics) for progress.
type ReshardResponse struct {
	From int `json:"from"`
	To   int `json:"to"`
}

func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	if s.ReshardFunc == nil {
		s.httpError(w, http.StatusNotImplemented,
			errors.New("resharding not available (start with -snapshot-dir)"))
		return
	}
	from, to, err := s.ReshardFunc()
	if errors.Is(err, ErrReshardInProgress) {
		s.httpError(w, http.StatusConflict, err)
		return
	}
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("reshard: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	if encErr := json.NewEncoder(w).Encode(ReshardResponse{From: from, To: to}); encErr != nil {
		s.logf("server: encode reshard response: %v", encErr)
	}
}

// reshardAttr returns the live reshard's phase for slow-query
// attribution, or "" when none is running (rendered as "none").
func (s *Server) reshardAttr() string {
	if s.ReshardProgress == nil {
		return ""
	}
	if p := s.ReshardProgress(); p.Active {
		return p.State
	}
	return ""
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One OnlineStats call per shard: graph numbers must come from under
	// each fixer's lock, never from unlocked reads through Index().
	topo := s.topo.Load()
	group := topo.Group
	ost, per := group.OnlineStats()
	var perShard []ShardStatsResponse
	if len(per) > 1 {
		perShard = make([]ShardStatsResponse, len(per))
		for i, p := range per {
			perShard[i] = ShardStatsResponse{
				Shard: i, Vectors: p.Vectors, Live: p.Live, ExtraEdges: p.ExtraEdges,
				PendingFix: p.Pending, FixedQueries: p.FixedQueries, FixBatches: p.FixBatches,
				ShedQueries: p.ShedQueries, WALErrors: p.WALErrors, LastWALError: p.LastWALError,
			}
		}
	}
	var adm *AdmissionStatsResponse
	if s.Admission != nil {
		ast := s.Admission.Stats()
		adm = &AdmissionStatsResponse{
			Capacity: ast.Capacity, InUse: ast.InUse,
			Queued: ast.Queued, QueueDepth: ast.QueueDepth, MaxQueued: ast.MaxQueued,
			Pressure: ast.Pressure,
			Admitted: ast.Admitted, Shed: ast.Shed, TimedOut: ast.TimedOut,
			Reclaimed: ast.Reclaimed,
		}
	}
	var repairMode string
	var repairStatus []repair.Status
	if fleet := topo.Repair; fleet != nil {
		repairMode = fleet.Mode()
		repairStatus = fleet.Status()
	}
	var reshardBlock *reshard.Progress
	if s.ReshardProgress != nil {
		if p := s.ReshardProgress(); p.State != "" && p.State != reshard.StateIdle {
			reshardBlock = &p
		}
	}
	var pqBlock *PQStatsResponse
	if pt, _, ok := group.PQStats(); ok {
		pqBlock = &PQStatsResponse{
			M: pt.M, KS: pt.KS, RerankFactor: pt.Rerank, Rows: pt.Rows,
			CodeBytes: pt.CodeBytes, CodebookBytes: pt.CodebookBytes,
			TierResidentBytes: pt.TierResidentBytes,
			ResidentBytes:     pt.ResidentBytes, FullVectorBytes: pt.FullVectorBytes,
			Searches: pt.Searches, ADCLookups: pt.ADCLookups,
			RerankNDC: pt.RerankNDC, Truncated: pt.Truncated,
		}
	}
	s.writeJSON(w, StatsResponse{
		Vectors:      ost.Vectors,
		Live:         ost.Live,
		Dim:          ost.Dim,
		Metric:       ost.Metric.String(),
		AvgDegree:    ost.AvgDegree,
		SizeBytes:    ost.SizeBytes,
		BaseEdges:    ost.BaseEdges,
		ExtraEdges:   ost.ExtraEdges,
		PendingFix:   ost.Pending,
		FixedQueries: ost.FixedQueries,
		FixBatches:   ost.FixBatches,
		ShedQueries:  ost.ShedQueries,
		WALErrors:    ost.WALErrors,
		LastWALError: ost.LastWALError,

		TruncatedSearches: s.truncated.Load(),
		ClampedSearches:   s.clamped.Load(),
		Admission:         adm,
		Shards:            group.Shards(),
		PerShard:          perShard,
		RepairMode:        repairMode,
		Repair:            repairStatus,
		PQ:                pqBlock,
		Reshard:           reshardBlock,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// notReady answers 503 and reports true while the server is not marked
// ready: still starting, or draining.
func (s *Server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return false
	}
	msg := "index not ready"
	if s.draining.Load() {
		msg = "draining"
	}
	s.httpError(w, http.StatusServiceUnavailable, errors.New(msg))
	return true
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	// A shard in trouble makes the node "dark" (503: stop routing here).
	topo := s.topo.Load()
	group := topo.Group
	if bad := group.DegradedShards(); len(bad) > 0 {
		// Searches still work, but acknowledged writes may not survive a
		// crash until a snapshot succeeds — stop routing traffic here.
		msg := "durability degraded (WAL failing; snapshot to recover)"
		if group.Shards() > 1 {
			msg = fmt.Sprintf("durability degraded on shard(s) %v (WAL failing; snapshot to recover)", bad)
		}
		s.httpError(w, http.StatusServiceUnavailable, errors.New(msg))
		return
	}
	if fleet := topo.Repair; fleet != nil {
		if bad := fleet.WedgedShards(); len(bad) > 0 {
			// The index still answers, but repair signal is accumulating
			// unapplied: the controller has failed several consecutive fix
			// batches and is wedged on its retry schedule.
			msg := "repair wedged in backoff (consecutive fix-batch failures)"
			if group.Shards() > 1 {
				msg = fmt.Sprintf("repair wedged in backoff on shard(s) %v (consecutive fix-batch failures)", bad)
			}
			s.httpError(w, http.StatusServiceUnavailable, errors.New(msg))
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// repairMode returns the repair fleet's aggregate mode for slow-query
// attribution, or "" without a controller (rendered as "none").
func (t *Topology) repairMode() string {
	if t.Repair == nil {
		return ""
	}
	return t.Repair.Mode()
}

// checkVector validates a request vector against the served
// dimensionality and the norm bound every indexed row keeps
// (vec.CheckNorm), returning the status to answer with when it fails: 400
// for a bad vector, 503 on a follower with nothing bootstrapped to
// validate against, let alone search.
func checkVector(topo *Topology, v []float32) (int, error) {
	if len(v) == 0 {
		return http.StatusBadRequest, errors.New("vector is required")
	}
	dim := topo.dim()
	if dim == 0 {
		return http.StatusServiceUnavailable, errors.New("replica not bootstrapped yet")
	}
	if len(v) != dim {
		return http.StatusBadRequest, fmt.Errorf("vector dim %d != index dim %d", len(v), dim)
	}
	if err := vec.CheckNorm(v); err != nil {
		return http.StatusBadRequest, fmt.Errorf("vector: %w", err)
	}
	return 0, nil
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, topo *Topology, dst interface{}) bool {
	if status, err := decodeRequest(r, topo.dim(), dst); err != nil {
		s.httpError(w, status, err)
		return false
	}
	return true
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logger != nil {
		s.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already on the wire; all that is left is making the
		// incident visible to operators.
		s.logf("server: encode %T response: %v", v, err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if encErr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); encErr != nil {
		s.logf("server: encode %d error response: %v", code, encErr)
	}
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"

	"ngfix/internal/obs"
	"ngfix/internal/replica"
)

// Follower serves a replica-only node: a process started with
// -replica-of that holds no primaries, just one read replica per shard
// of some leader. It speaks the same /v1/search request and response
// shapes as the full server so clients and load balancers need no
// special casing — every answer simply carries "stale": true, because a
// follower's answers are by construction as fresh as its replication
// position, not the leader's.
//
// Mutations have no route here (404): a follower's state is the
// leader's WAL, nothing else, which is what keeps it bit-identical and
// makes failing over to it safe.
//
//	POST /v1/search   — read-only scatter over the shard replicas
//	GET  /v1/stats    — per-shard replica status (generation, lag, errors)
//	GET  /healthz     — 200 while the process runs
//	GET  /readyz      — 503 until every shard replica is bootstrapped and
//	                    within its configured lag bound
//	GET  /metrics     — ngfix_replica_* families, shard-labeled
type Follower struct {
	set *replica.Set
	mux *http.ServeMux
	// DefaultK / DefaultEF apply when a search request omits them.
	DefaultK, DefaultEF int
	// Logger receives malformed-response incidents and handler panics.
	Logger *log.Logger
	// MaxBodyBytes caps request bodies (DefaultMaxBodyBytes when 0).
	MaxBodyBytes int64

	metricsRegs []*obs.Registry
}

// NewFollower builds a follower server over a replica set. The caller
// drives the set (Set.Run) separately.
func NewFollower(set *replica.Set) *Follower {
	f := &Follower{set: set, mux: http.NewServeMux(), DefaultK: 10, DefaultEF: 100}
	f.mux.HandleFunc("/v1/search", f.method(http.MethodPost, f.handleSearch))
	f.mux.HandleFunc("/v1/stats", f.method(http.MethodGet, f.handleStats))
	f.mux.HandleFunc("/healthz", f.method(http.MethodGet, f.handleHealthz))
	f.mux.HandleFunc("/readyz", f.method(http.MethodGet, f.handleReadyz))
	f.mux.HandleFunc("/metrics", f.method(http.MethodGet, f.handleMetrics))
	return f
}

// EnableMetrics makes GET /metrics serve the merged exposition of the
// given registries (the caller registers each replica's families on a
// shard-labeled registry first).
func (f *Follower) EnableMetrics(regs ...*obs.Registry) { f.metricsRegs = regs }

// ServeHTTP implements http.Handler with the same protective middleware
// as the full server: size-capped bodies, panic recovery.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			f.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				f.httpError(sw, http.StatusInternalServerError, errors.New("internal server error"))
			}
		}
	}()
	if r.Body != nil {
		max := f.MaxBodyBytes
		if max <= 0 {
			max = DefaultMaxBodyBytes
		}
		r.Body = http.MaxBytesReader(sw, r.Body, max)
	}
	f.mux.ServeHTTP(sw, r)
}

func (f *Follower) method(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != verb {
			w.Header().Set("Allow", verb)
			f.httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s required", verb))
			return
		}
		h(w, r)
	}
}

func (f *Follower) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if status, err := decodeRequest(r, f.set.Dim(), &req); err != nil {
		f.httpError(w, status, err)
		return
	}
	if len(req.Vector) == 0 {
		f.httpError(w, http.StatusBadRequest, errors.New("vector is required"))
		return
	}
	dim := f.set.Dim()
	if dim == 0 {
		// No shard has bootstrapped: there is nothing to validate against,
		// let alone search.
		f.httpError(w, http.StatusServiceUnavailable, errors.New("replica not bootstrapped yet"))
		return
	}
	if len(req.Vector) != dim {
		f.httpError(w, http.StatusBadRequest,
			fmt.Errorf("vector dim %d != index dim %d", len(req.Vector), dim))
		return
	}
	k := f.DefaultK
	if req.K != nil {
		if *req.K <= 0 {
			f.httpError(w, http.StatusBadRequest, fmt.Errorf("k must be at least 1, got %d", *req.K))
			return
		}
		k = *req.K
	}
	ef := f.DefaultEF
	if ef < k {
		ef = k
	}
	if req.EF != nil {
		if *req.EF < k {
			f.httpError(w, http.StatusBadRequest, fmt.Errorf("ef (%d) must be at least k (%d)", *req.EF, k))
			return
		}
		ef = *req.EF
	}
	res, st := f.set.SearchCtx(r.Context(), req.Vector, k, ef)
	resp := SearchResponse{
		NDC: st.NDC, Truncated: st.Truncated,
		EFUsed: ef, Stale: true,
		Results: make([]SearchHit, len(res)),
	}
	for i, h := range res {
		resp.Results[i] = SearchHit{ID: h.ID, Dist: h.Dist}
	}
	f.writeJSON(w, resp)
}

// FollowerStatsResponse is the follower's /v1/stats reply: replication
// state only, because replication state is all a follower has.
type FollowerStatsResponse struct {
	Shards  int              `json:"shards"`
	Ready   bool             `json:"ready"`
	Replica []replica.Status `json:"replica"`
}

func (f *Follower) handleStats(w http.ResponseWriter, r *http.Request) {
	f.writeJSON(w, FollowerStatsResponse{
		Shards:  f.set.Shards(),
		Ready:   f.set.Ready(),
		Replica: f.set.Statuses(),
	})
}

func (f *Follower) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (f *Follower) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, st := range f.set.Statuses() {
		if !st.Ready {
			why := "bootstrapping"
			if st.Generation > 0 {
				why = fmt.Sprintf("lagging (%d bytes, %d generations behind)", st.Lag.Bytes, st.Lag.Generations)
			}
			f.httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %d replica %s", st.Shard, why))
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (f *Follower) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if len(f.metricsRegs) == 0 {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	obs.MergedHandler(f.metricsRegs...).ServeHTTP(w, r)
}

func (f *Follower) logf(format string, args ...interface{}) {
	if f.Logger != nil {
		f.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (f *Follower) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.logf("server: encode %T response: %v", v, err)
	}
}

func (f *Follower) httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if encErr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); encErr != nil {
		f.logf("server: encode %d error response: %v", code, encErr)
	}
}

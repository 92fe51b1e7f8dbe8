package server

import (
	"fmt"
	"net/http"

	"ngfix/internal/replica"
)

// NewFollower builds the Server for a replica-only node: a process
// started with -replica-of that holds no primaries, just one read replica
// per shard of some leader. Its topology holds only Replicas, and it
// registers only the read routes, so mutations and replication answer
// 404: a follower's state is the leader's WAL, nothing else, which is
// what keeps it bit-identical and makes failing over to it safe.
//
// Searches run through the leader's handler — same validation,
// admission, budget and slow-query log — and every answer carries
// "stale": true, because a follower is as fresh as its replication
// position, not the leader's. /v1/stats and /readyz report replication
// state. The caller drives the set (Set.Run) separately.
//
// A follower starts ready: its replicas gate /readyz (503 until every
// shard replica is bootstrapped and within its lag bound), and
// SetReady(false) or StartDrain turn it 503 like the leader's.
func NewFollower(set *replica.Set) *Server {
	s := newServer(&Topology{Replicas: set})
	s.mux.HandleFunc("/v1/stats", s.method(http.MethodGet, s.handleFollowerStats))
	s.mux.HandleFunc("/readyz", s.method(http.MethodGet, s.handleFollowerReadyz))
	s.ready.Store(true)
	return s
}

// FollowerStatsResponse is the follower's /v1/stats reply: replication
// state only, because replication state is all a follower has.
type FollowerStatsResponse struct {
	Shards  int              `json:"shards"`
	Ready   bool             `json:"ready"`
	Replica []replica.Status `json:"replica"`
}

func (s *Server) handleFollowerStats(w http.ResponseWriter, r *http.Request) {
	set := s.topo.Load().Replicas
	s.writeJSON(w, FollowerStatsResponse{
		Shards:  set.Shards(),
		Ready:   set.Ready(),
		Replica: set.Statuses(),
	})
}

func (s *Server) handleFollowerReadyz(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	for _, st := range s.topo.Load().Replicas.Statuses() {
		if !st.Ready {
			why := "bootstrapping"
			if st.Generation > 0 {
				why = fmt.Sprintf("lagging (%d bytes, %d generations behind)", st.Lag.Bytes, st.Lag.Generations)
			}
			if st.LastError != "" {
				why += ": " + st.LastError
			}
			s.httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %d replica %s", st.Shard, why))
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

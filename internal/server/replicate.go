package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ngfix/internal/persist"
	"ngfix/internal/replica"
)

// Leader-side replication endpoints. Followers (replica.HTTPSource) pull
// three things per shard: the replication position, the current sealed
// snapshot, and the op log from a byte offset. All three read only the
// persist.Store — never the fixer's locks — so a wedged primary (WAL
// appends blocked mid-write) keeps feeding its followers everything that
// already reached disk.
//
//	GET /v1/replicate/status?shard=N            → ReplicationStatus JSON
//	GET /v1/replicate/snapshot?shard=N          → snapshot bytes, generation
//	                                              in X-Ngfix-Generation
//	GET /v1/replicate/wal?shard=N&gen=G&offset=O → op-log bytes from offset
//
// A generation the leader has rotated away answers 410 Gone — the
// follower's cue to resync from a fresh snapshot. Integrity is the
// format's job, not the transport's: snapshots and WAL records carry
// checksums the follower verifies, so a transfer cut at any byte is
// detected there.

// replicateStore resolves the shard query parameter to its store,
// answering the error itself when it cannot.
func (s *Server) replicateStore(w http.ResponseWriter, r *http.Request) *persist.Store {
	stores := s.topo.Load().Stores
	if len(stores) == 0 {
		s.httpError(w, http.StatusNotImplemented,
			errors.New("replication not available (start with -snapshot-dir)"))
		return nil
	}
	sh := 0
	if v := r.URL.Query().Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", v))
			return nil
		}
		sh = n
	}
	if sh < 0 || sh >= len(stores) {
		s.httpError(w, http.StatusBadRequest,
			fmt.Errorf("shard %d out of range (%d shards)", sh, len(stores)))
		return nil
	}
	return stores[sh]
}

func (s *Server) handleReplicateStatus(w http.ResponseWriter, r *http.Request) {
	st := s.replicateStore(w, r)
	if st == nil {
		return
	}
	rs := st.ReplicationStatus()
	rs.Shards = len(s.topo.Load().Stores)
	s.writeJSON(w, rs)
}

func (s *Server) handleReplicateSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.replicateStore(w, r)
	if st == nil {
		return
	}
	gen, rc, err := st.OpenSnapshot()
	if err != nil {
		s.replicateError(w, "snapshot", err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replica.GenerationHeader, strconv.FormatUint(gen, 10))
	if _, err := io.Copy(w, rc); err != nil {
		// Headers are gone; the cut stream fails the follower's checksum.
		s.logf("server: replicate snapshot gen %d: %v", gen, err)
	}
}

func (s *Server) handleReplicateWAL(w http.ResponseWriter, r *http.Request) {
	st := s.replicateStore(w, r)
	if st == nil {
		return
	}
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad gen %q", q.Get("gen")))
		return
	}
	offset := int64(0)
	if v := q.Get("offset"); v != "" {
		offset, err = strconv.ParseInt(v, 10, 64)
		if err != nil || offset < 0 {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", v))
			return
		}
	}
	rc, err := st.OpenWAL(gen, offset)
	if err != nil {
		s.replicateError(w, "wal", err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := io.Copy(w, rc); err != nil {
		s.logf("server: replicate wal gen %d offset %d: %v", gen, offset, err)
	}
}

// replicateError maps a store error onto the replication protocol: a
// rotated-away generation is 410 Gone (resync, don't retry), anything
// else is a transient 500 the follower's backoff absorbs.
func (s *Server) replicateError(w http.ResponseWriter, what string, err error) {
	if errors.Is(err, persist.ErrGenerationGone) {
		s.httpError(w, http.StatusGone, fmt.Errorf("%s: %v", what, err))
		return
	}
	s.httpError(w, http.StatusInternalServerError, fmt.Errorf("%s: %v", what, err))
}

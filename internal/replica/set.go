package replica

import (
	"context"
	"errors"
	"sync"

	"ngfix/internal/graph"
	"ngfix/internal/shard"
)

// Set is one replica per shard — the whole-index follower a replica-only
// server runs. The shard↔global id arithmetic is the same Router the
// leader uses, so a global id returned by a replica search means the same
// vector it means on the leader.
type Set struct {
	router shard.Router
	reps   []*Replica
}

// NewSet wraps one replica per shard, in shard order.
func NewSet(reps []*Replica) (*Set, error) {
	if len(reps) == 0 {
		return nil, errors.New("replica: set needs at least one replica")
	}
	for i, r := range reps {
		if r == nil {
			return nil, errors.New("replica: nil replica in set")
		}
		if r.cfg.Shard != i {
			return nil, errors.New("replica: set must be in shard order")
		}
		r.shards = len(reps)
	}
	return &Set{router: shard.NewRouter(len(reps)), reps: reps}, nil
}

// Shards returns the shard count.
func (s *Set) Shards() int { return len(s.reps) }

// Run drives every replica's tail loop until ctx ends. Blocks until all
// loops exit.
func (s *Set) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range s.reps {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			r.Run(ctx)
		}(r)
	}
	wg.Wait()
}

// Ready reports whether every shard's replica can serve.
func (s *Set) Ready() bool {
	for _, r := range s.reps {
		if !r.Ready() {
			return false
		}
	}
	return true
}

// Dim returns the followed index's dimensionality: the first
// bootstrapped replica's (all shards share one vector space), or 0 when
// none has bootstrapped yet.
func (s *Set) Dim() int {
	for _, r := range s.reps {
		if d := r.Dim(); d > 0 {
			return d
		}
	}
	return 0
}

// Statuses returns every replica's status, in shard order.
func (s *Set) Statuses() []Status {
	out := make([]Status, len(s.reps))
	for i, r := range s.reps {
		out[i] = r.Status()
	}
	return out
}

// Len returns the vector count across the replicas that can serve — what
// a follower server bounds a request's ef by.
func (s *Set) Len() int {
	n := 0
	for _, r := range s.reps {
		n += r.Len()
	}
	return n
}

// Search scatters a query across all shard replicas, at most parallel at
// a time, and gathers a global top-k through the same shard.Gather a
// leader's group uses — the read path of a replica-only follower server.
// Shards whose replica cannot serve (not bootstrapped yet, or refusing a
// leader whose shard count differs) are skipped: their vectors are simply
// absent from the answer, reported via Stats.Truncated, because a
// follower's job is to keep answering with what it has.
func (s *Set) Search(ctx context.Context, q []float32, k, ef, parallel int) ([]graph.Result, graph.Stats) {
	return shard.Gather(ctx, s.router, k, parallel, func(i int) ([]graph.Result, graph.Stats) {
		res, st, ok := s.reps[i].SearchCtx(ctx, q, k, ef)
		st.Truncated = st.Truncated || !ok
		return res, st
	})
}

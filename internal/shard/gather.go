package shard

import (
	"context"
	"sort"

	"ngfix/internal/graph"
)

// Gather is the scatter-gather every multi-shard read runs — a Group's
// primaries and a follower's replica set alike. It calls search once per
// shard of r, at most parallel at a time (the server passes the admission
// units the request was granted), and merges the shard-local top-k lists
// into a global top-k. search returns shard s's answer in local ids;
// Gather maps the ids through r. Stats sum across shards (they measure
// total work, which is what the cost model prices).
//
// Cancellation is two-level: each per-shard search honors ctx on its own
// (returning its best-so-far with Truncated set), and the gather stops
// waiting for stragglers once ctx ends, merging whatever shards have
// answered. Either way the caller gets a ranked partial answer with
// Stats.Truncated reporting the quality loss.
func Gather(ctx context.Context, r Router, k, parallel int, search func(s int) ([]graph.Result, graph.Stats)) ([]graph.Result, graph.Stats) {
	n := r.Shards()
	if n == 1 {
		return search(0) // one shard: local ids are global
	}
	if parallel < 1 {
		parallel = 1
	}
	if parallel > n {
		parallel = n
	}

	type hit struct {
		shard int
		res   []graph.Result
		st    graph.Stats
	}
	sem := make(chan struct{}, parallel)
	hits := make(chan hit, n) // buffered: stragglers never block after abandon
	for s := 0; s < n; s++ {
		go func(s int) {
			sem <- struct{}{}
			res, st := search(s)
			<-sem
			hits <- hit{shard: s, res: res, st: st}
		}(s)
	}

	var (
		merged []graph.Result
		stats  graph.Stats
	)
	var done <-chan struct{}
	if ctx != nil { // nil ctx never cancels, matching the fixer's contract
		done = ctx.Done()
	}
	for received := 0; received < n; received++ {
		select {
		case h := <-hits:
			for _, res := range h.res {
				merged = append(merged, graph.Result{ID: r.Global(h.shard, res.ID), Dist: res.Dist})
			}
			stats.NDC += h.st.NDC
			stats.ADCLookups += h.st.ADCLookups
			stats.Hops += h.st.Hops
			stats.Truncated = stats.Truncated || h.st.Truncated
		case <-done:
			// Deadline expired mid-gather: answer with the shards that made
			// it. The stragglers finish into the buffered channel and are
			// garbage-collected with it.
			stats.Truncated = true
			received = n
		}
	}

	// Global top-k: each shard's list is its local top-k, so the union
	// contains the true global top-k. Ties break toward the lower global
	// id to keep the one-shard and N-shard orders comparable in tests.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Dist != merged[j].Dist {
			return merged[i].Dist < merged[j].Dist
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, stats
}

package replica

import (
	"ngfix/internal/obs"
)

// RegisterMetrics exports the replica's state on reg — the shard's
// registry, so every family picks up the shard="<i>" constant label and
// folds across shards at /metrics. All series are Func-backed reads of
// the replica's own counters, so /metrics and /v1/stats never disagree.
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("ngfix_replica_ready",
		"Whether the shard's replica is bootstrapped and within its lag bound (1 = ready).",
		func() float64 {
			if r.Ready() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ngfix_replica_lag_generations",
		"Snapshot generations the replica is behind the leader (>0 means a resync is due).",
		func() float64 { return float64(r.Lag().Generations) })
	reg.GaugeFunc("ngfix_replica_lag_bytes",
		"WAL bytes the replica has not yet applied.",
		func() float64 { return float64(r.Lag().Bytes) })
	reg.GaugeFunc("ngfix_replica_lag_records",
		"WAL records the replica has not yet applied.",
		func() float64 { return float64(r.Lag().Records) })
	reg.GaugeFunc("ngfix_replica_generation",
		"Snapshot generation the replica's served index came from.",
		func() float64 { return float64(r.gen.Load()) })
	reg.CounterFunc("ngfix_replica_applied_records_total",
		"Op-log records the replica has applied over its lifetime (across resyncs).",
		func() float64 { return float64(r.applied.Load()) })
	reg.CounterFunc("ngfix_replica_tail_errors_total",
		"Errors hit while shipping snapshots or tailing the WAL (each retried with backoff).",
		func() float64 { return float64(r.tailErrs.Load()) })
	reg.CounterFunc("ngfix_replica_resyncs_total",
		"Full re-bootstraps forced by the tailed generation disappearing under the replica.",
		func() float64 { return float64(r.resyncs.Load()) })
}

package repair

import (
	"ngfix/internal/obs"
)

// RegisterMetrics exports the controller's state on reg — the shard's
// registry, so every family below picks up the shard="<i>" constant
// label and folds across shards at /metrics.
//
// All series are Func-backed reads of the controller's own counters, so
// /metrics and /v1/stats can never disagree about what repair did.
func (c *Controller) RegisterMetrics(reg *obs.Registry) {
	for _, m := range []Mode{ModeSteady, ModeBackoff} {
		m := m
		reg.GaugeFunc("ngfix_repair_mode",
			"Repair controller mode, one-hot by mode label (1 = current mode).",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.mode == m {
					return 1
				}
				return 0
			},
			obs.Label{Name: "mode", Value: m.String()})
	}
	for _, reason := range reasons {
		reason := reason
		reg.CounterFunc("ngfix_repair_triggers_total",
			"Fix batches executed, by the trigger reason that fired them.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(c.triggers[reason])
			},
			obs.Label{Name: "reason", Value: reason})
	}
	reg.CounterFunc("ngfix_repair_batches_total",
		"Fix batches the repair controller executed.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.batchesRun)
		})
	reg.CounterFunc("ngfix_repair_deferred_total",
		"Repair ticks that ran no batch because admission denied even the minimum batch.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.batchesDeferred)
		})
	reg.CounterFunc("ngfix_repair_shrunk_total",
		"Fix batches that ran smaller than the pending queue because pressure or saturation shrank them.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.batchesShrunk)
		})
	reg.CounterFunc("ngfix_repair_cost_units_total",
		"Admission capacity units repair batches have paid for.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.costUnits)
		})
	reg.GaugeFunc("ngfix_repair_consecutive_failures",
		"Unbroken durability failures on the controller's retry schedule (0 = healthy).",
		func() float64 { return float64(c.consecutiveFails()) })
}

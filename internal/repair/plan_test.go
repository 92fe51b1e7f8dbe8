package repair

import (
	"testing"
	"time"

	"ngfix/internal/core"
)

// planCfg is the defaulted config the planner tests read thresholds
// from: Interval 1s, MaxInterval 16s, gate 0.5, MinBatch 8.
func planCfg() Config { return Config{Interval: time.Second}.withDefaults() }

// Pressure above the gate stretches the cadence linearly toward
// MaxInterval and shrinks the batch on the same slope (floored at
// MinBatch).
func TestPlanPressure(t *testing.T) {
	cfg := planCfg()
	sig := core.Signals{Pending: 100, BatchCap: 400}

	// Halfway between the gate and 1: cadence halfway to the ceiling,
	// batch halved.
	pl := plan(cfg, sig, 0, 0.75)
	if pl.mode != ModeBackoff || pl.reason != ReasonPressure {
		t.Fatalf("p=0.75: mode/reason %v/%q", pl.mode, pl.reason)
	}
	wantNext := cfg.Interval + (cfg.MaxInterval-cfg.Interval)/2
	if pl.next != wantNext {
		t.Fatalf("p=0.75: next %s, want %s", pl.next, wantNext)
	}
	if pl.batchLimit != 50 {
		t.Fatalf("p=0.75: batchLimit %d, want 50", pl.batchLimit)
	}
	if !pl.fix {
		t.Fatal("p=0.75: pressure must shrink batches, not stop repair")
	}

	// Full pressure: ceiling cadence, floor batch.
	pl = plan(cfg, sig, 0, 1)
	if pl.next != cfg.MaxInterval || pl.batchLimit != cfg.MinBatch {
		t.Fatalf("p=1: next %s limit %d, want %s and %d", pl.next, pl.batchLimit, cfg.MaxInterval, cfg.MinBatch)
	}

	// At (not above) the gate the pressure path stays off.
	pl = plan(cfg, sig, 0, cfg.PressureGate)
	if pl.mode != ModeSteady {
		t.Fatalf("p==gate: mode %v, want steady", pl.mode)
	}

	// Nothing pending: no fix even under pressure.
	pl = plan(cfg, core.Signals{}, 0, 0.9)
	if pl.fix {
		t.Fatal("p=0.9 with empty queue: fix planned with nothing to do")
	}
}

// Steady-mode trigger attribution: shed signal outranks a full buffer,
// which outranks the routine interval; an empty queue plans no fix.
func TestPlanSteadyReasons(t *testing.T) {
	cfg := planCfg()
	const lastShed = 3
	cases := []struct {
		name   string
		sig    core.Signals
		reason string
		fix    bool
	}{
		{"routine", core.Signals{Pending: 4, BatchCap: 16, Shed: 3}, ReasonInterval, true},
		{"buffer full", core.Signals{Pending: 16, BatchCap: 16, Shed: 3}, ReasonPending, true},
		{"shed since last tick", core.Signals{Pending: 4, BatchCap: 16, Shed: 5}, ReasonShed, true},
		{"shed outranks full buffer", core.Signals{Pending: 16, BatchCap: 16, Shed: 9}, ReasonShed, true},
		{"empty queue", core.Signals{BatchCap: 16, Shed: 3}, ReasonInterval, false},
	}
	for _, c := range cases {
		pl := plan(cfg, c.sig, lastShed, 0)
		if pl.mode != ModeSteady || pl.reason != c.reason || pl.fix != c.fix {
			t.Errorf("%s: got %v/%q fix=%v, want steady/%q fix=%v", c.name, pl.mode, pl.reason, pl.fix, c.reason, c.fix)
		}
		if pl.next != cfg.Interval {
			t.Errorf("%s: next %s, want %s", c.name, pl.next, cfg.Interval)
		}
	}
}

// Config defaulting: the zero value must come out runnable, with the
// pressure ceiling above the base cadence.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Interval <= 0 {
		t.Fatalf("interval: %+v", cfg)
	}
	if cfg.MaxInterval <= cfg.Interval {
		t.Fatalf("MaxInterval %s not above Interval %s", cfg.MaxInterval, cfg.Interval)
	}
	if cfg.PressureGate <= 0 || cfg.PressureGate >= 1 {
		t.Fatalf("pressure gate %v not in (0, 1)", cfg.PressureGate)
	}
	if cfg.MinBatch <= 0 || cfg.WedgedAfter <= 0 {
		t.Fatalf("floors: %+v", cfg)
	}
}

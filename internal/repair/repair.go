// Package repair closes the loop the rest of the stack built signals
// for: instead of firing fix batches on a blind fixed cadence, a
// per-shard Controller watches the signals its fixer exports (pending
// recorded-query depth, shed counts, WAL state) plus the admission
// controller's pressure, and decides *when* to repair and *how big* a
// batch to spend.
//
// The controller has two modes:
//
//   - Steady mode: the fixed cadence, annotated with why each tick
//     fixed (routine interval, buffer at capacity, repair signal being
//     shed).
//   - Backoff mode: under admission pressure the cadence stretches
//     toward a max interval and batches shrink; after a durability
//     error the controller keeps core.BackoffDelay's jittered
//     exponential retry.
//
// Repair pays for itself: every batch is costed through
// admission.FixCost and admitted with TryAcquire, which never queues
// and never takes more than half the capacity — so repair can never
// starve search, even wedged mid-batch on a frozen WAL. Denied the full
// batch, the controller halves it down to a floor before deferring
// entirely; under sustained saturation repair degrades to small cheap
// batches instead of stopping.
//
// Each shard gets its own Controller goroutine (a Fleet staggers their
// start times so batches never synchronize across shards); a wedged
// controller holds only its shard's locks and its own ≤ half-capacity
// admission units, leaving every other shard — and all searches — live.
package repair

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/xrand"
)

// Mode is the controller's operating regime.
type Mode int32

const (
	// ModeSteady is the routine cadence: fix whatever is pending every
	// base interval.
	ModeSteady Mode = iota
	// ModeBackoff covers both retreat conditions: admission pressure
	// stretching the cadence toward MaxInterval, and durability errors
	// retried on core.BackoffDelay's schedule. LastReason tells them
	// apart ("pressure" vs "wal_error").
	ModeBackoff
)

// String returns the mode's wire name, as used in /v1/stats, /metrics
// labels, and the slow-query log.
func (m Mode) String() string {
	if m == ModeBackoff {
		return "backoff"
	}
	return "steady"
}

// Trigger reasons: why a tick decided to fix (or to hold back). These
// appear as the reason label on ngfix_repair_triggers_total and as
// lastReason in /v1/stats.
const (
	// ReasonPending: the recorded-query buffer reached capacity — the
	// next search sheds repair signal.
	ReasonPending = "pending"
	// ReasonShed: recorded queries were dropped since the last tick;
	// repair signal is already being lost.
	ReasonShed = "shed"
	// ReasonInterval: routine steady-cadence tick.
	ReasonInterval = "interval"
	// ReasonPressure: admission pressure or saturation shrank, deferred,
	// or stretched this tick.
	ReasonPressure = "pressure"
	// ReasonWALError: a durability error has the controller on the
	// jittered exponential retry schedule.
	ReasonWALError = "wal_error"
)

// reasons lists every trigger reason, for metric pre-registration.
var reasons = []string{
	ReasonPending, ReasonShed, ReasonInterval, ReasonPressure, ReasonWALError,
}

// Config shapes a Controller. The zero value of every field except
// Interval takes a sensible default.
type Config struct {
	// Interval is the steady-mode cadence (default 1s). It doubles as
	// the base of the durability-error backoff schedule.
	Interval time.Duration
	// MaxInterval is the ceiling the cadence stretches toward under
	// admission pressure (default 16×Interval).
	MaxInterval time.Duration
	// PressureGate is the admission pressure above which the controller
	// retreats: cadence stretches toward MaxInterval and batches shrink
	// (default 0.5, matching admission's degradation threshold).
	PressureGate float64
	// MinBatch is the smallest batch the shrink path will pay for
	// (default 8). Below it the tick defers entirely.
	MinBatch int
	// WedgedAfter is how many consecutive durability failures mark the
	// controller wedged for /readyz (default 3).
	WedgedAfter int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MaxInterval <= c.Interval {
		c.MaxInterval = 16 * c.Interval
	}
	if c.PressureGate <= 0 || c.PressureGate >= 1 {
		c.PressureGate = 0.5
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 8
	}
	if c.WedgedAfter <= 0 {
		c.WedgedAfter = 3
	}
	return c
}

// tickPlan is one wake-up's decision: which mode the controller is in,
// why, whether to fix, how big a batch at most (0 = drain fully), and
// when to wake next.
type tickPlan struct {
	mode       Mode
	reason     string
	fix        bool
	batchLimit int
	next       time.Duration
}

// plan is the trigger/pressure decision, a pure function of the config,
// the signals, the shed count the last tick saw, and the admission
// pressure.
func plan(cfg Config, sig core.Signals, lastShed int, pressure float64) tickPlan {
	// Above the pressure gate a saturated box repairs small and slow,
	// because repair stealing capacity from search is exactly the
	// failure mode admission control exists to prevent. The cadence
	// stretches linearly toward MaxInterval as pressure climbs from the
	// gate to 1, and the batch shrinks on the same slope (never below
	// MinBatch — repair degrades, it does not stop).
	if pressure > cfg.PressureGate {
		frac := (pressure - cfg.PressureGate) / (1 - cfg.PressureGate)
		if frac > 1 {
			frac = 1
		}
		next := cfg.Interval + time.Duration(frac*float64(cfg.MaxInterval-cfg.Interval))
		limit := int(float64(sig.Pending) * (1 - frac))
		if limit < cfg.MinBatch {
			limit = cfg.MinBatch
		}
		return tickPlan{mode: ModeBackoff, reason: ReasonPressure, fix: sig.Pending > 0, batchLimit: limit, next: next}
	}

	reason := ReasonInterval
	switch {
	case sig.Shed > lastShed:
		reason = ReasonShed
	case sig.BatchCap > 0 && sig.Pending >= sig.BatchCap:
		reason = ReasonPending
	}
	return tickPlan{mode: ModeSteady, reason: reason, fix: sig.Pending > 0, next: cfg.Interval}
}

// Controller is one shard's repair loop. Construct with New, start with
// Run (usually via a Fleet), observe with Status and RegisterMetrics.
type Controller struct {
	shard int
	fixer *core.OnlineFixer
	adm   *admission.Controller // nil: un-governed, batches are free
	cfg   Config

	mu       sync.Mutex
	mode     Mode
	lastShed int
	reason   string
	fails    int
	lastErr  error

	batchesRun      uint64
	batchesDeferred uint64
	batchesShrunk   uint64
	costUnits       uint64
	triggers        map[string]uint64
}

// New builds a controller for one shard's fixer. adm may be nil (no
// admission control configured); then batches run un-costed.
func New(shard int, fixer *core.OnlineFixer, adm *admission.Controller, cfg Config) *Controller {
	c := &Controller{
		shard:    shard,
		fixer:    fixer,
		adm:      adm,
		cfg:      cfg.withDefaults(),
		reason:   ReasonInterval,
		triggers: make(map[string]uint64, len(reasons)),
	}
	c.lastShed = fixer.Signals().Shed
	return c
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Run drives the loop until ctx ends. initialDelay staggers the first
// tick (a Fleet spreads its controllers across the base interval so
// shards never batch in lockstep); the loop then paces itself from each
// tick's plan. logf (nil to discard) receives progress and failure
// lines. Blocks until ctx is done.
func (c *Controller) Run(ctx context.Context, initialDelay time.Duration, logf func(format string, args ...interface{})) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	rng := xrand.NewOffset(int64(c.shard))
	if initialDelay < 0 {
		initialDelay = 0
	}
	timer := time.NewTimer(initialDelay)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		timer.Reset(c.tick(rng, logf))
	}
}

// tick runs one wake-up: snapshot signals, plan, pay admission, fix,
// account. It returns the delay until the next wake-up.
func (c *Controller) tick(rng *rand.Rand, logf func(format string, args ...interface{})) time.Duration {
	sig := c.fixer.Signals()
	pressure := 0.0
	if c.adm != nil {
		pressure = c.adm.Pressure()
	}

	var pl tickPlan
	c.note(func() {
		pl = plan(c.cfg, sig, c.lastShed, pressure)
		if c.fails > 0 {
			// Mid-retry-schedule the controller stays visibly in backoff
			// (whatever the planner says) until a batch succeeds — /readyz
			// reports "wedged in backoff", so the mode must agree.
			c.mode, c.reason = ModeBackoff, ReasonWALError
		} else {
			c.mode, c.reason = pl.mode, pl.reason
		}
		c.lastShed = sig.Shed
	})
	if !pl.fix {
		return pl.next
	}

	// Pay for the batch before taking the shard's write lock. Denied
	// the full cost, halve the batch down to MinBatch; denied even
	// that, defer the whole tick — TryAcquire never queues, so a
	// saturated limiter costs repair one lock-free check, not a slot.
	batch := sig.Pending
	if pl.batchLimit > 0 && pl.batchLimit < batch {
		batch = pl.batchLimit
	}
	var release func()
	cost := 0
	shrunk := batch < sig.Pending
	if c.adm != nil {
		for {
			rel, ok := c.adm.TryAcquire(c.adm.FixCost(batch))
			if ok {
				release, cost = rel, c.adm.FixCost(batch)
				break
			}
			if batch <= c.cfg.MinBatch {
				c.note(func() {
					c.batchesDeferred++
					c.mode, c.reason = ModeBackoff, ReasonPressure
				})
				// Saturation can deny with zero queue pressure (capacity
				// held by long requests), so the plan's next may not be
				// stretched yet; retreat at least one full interval,
				// never past the ceiling.
				next := pl.next
				if next < c.cfg.Interval {
					next = c.cfg.Interval
				}
				if next *= 2; next > c.cfg.MaxInterval {
					next = c.cfg.MaxInterval
				}
				return next
			}
			batch /= 2
			if batch < c.cfg.MinBatch {
				batch = c.cfg.MinBatch
			}
			shrunk = true
		}
	}

	limit := 0
	if batch < sig.Pending {
		limit = batch
	}
	rep, err := c.fixSafely(limit)
	if release != nil {
		release()
	}
	if err != nil {
		var d time.Duration
		c.note(func() {
			c.fails++
			c.lastErr = err
			c.mode, c.reason = ModeBackoff, ReasonWALError
			d = core.BackoffDelay(c.cfg.Interval, c.fails, rng.Float64())
		})
		logf("repair fix failed (attempt %d, retrying in %s): %v", c.consecutiveFails(), d.Round(time.Millisecond), err)
		return d
	}
	recovered := false
	c.note(func() {
		if c.fails > 0 {
			// The streak is over: leave the forced backoff now rather than
			// at the next tick, so /v1/stats never shows a healthy
			// controller still flagged wal_error.
			recovered = true
			c.mode, c.reason = pl.mode, pl.reason
		}
		c.fails = 0
		c.lastErr = nil
		c.batchesRun++
		c.costUnits += uint64(cost)
		if shrunk {
			c.batchesShrunk++
		}
		c.triggers[pl.reason]++
	})
	if recovered {
		logf("repair recovered after failed attempt(s)")
	}
	if rep.Queries > 0 {
		logf("repair [%s/%s]: %d queries, +%d edges, cost %d",
			pl.mode, pl.reason, rep.Queries, rep.NGFixEdges+rep.RFixEdges, cost)
	}
	return pl.next
}

// fixSafely converts a panicking fix batch into an error: one poisoned
// batch degrades the controller to the retry schedule instead of killing
// its goroutine.
func (c *Controller) fixSafely(limit int) (rep core.FixReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fix batch panicked: %v", r)
		}
	}()
	return c.fixer.FixPendingLimitChecked(limit)
}

// note runs fn under the controller mutex.
func (c *Controller) note(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

func (c *Controller) consecutiveFails() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fails
}

// Status is a point-in-time view of one controller, shaped for
// /v1/stats.
type Status struct {
	Shard int `json:"shard"`
	// Mode is steady | backoff; Reason is the last trigger
	// reason the planner recorded.
	Mode   string `json:"mode"`
	Reason string `json:"reason"`
	// ConsecutiveFailures counts unbroken durability failures; Wedged
	// reports it reached the configured threshold (surfaced on
	// /readyz).
	ConsecutiveFailures int  `json:"consecutiveFailures"`
	Wedged              bool `json:"wedged"`
	// BatchesRun / Deferred / Shrunk: fix batches executed, ticks that
	// gave up because admission denied even the minimum batch, and
	// batches that ran smaller than the pending queue because pressure
	// or saturation shrank them.
	BatchesRun      uint64 `json:"batchesRun"`
	BatchesDeferred uint64 `json:"batchesDeferred"`
	BatchesShrunk   uint64 `json:"batchesShrunk"`
	// CostUnits is the lifetime admission cost repair has paid.
	CostUnits uint64 `json:"costUnits"`
	LastError string `json:"lastError,omitempty"`
}

// Status returns the controller's current state and counters.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Shard:               c.shard,
		Mode:                c.mode.String(),
		Reason:              c.reason,
		ConsecutiveFailures: c.fails,
		Wedged:              c.fails >= c.cfg.WedgedAfter,
		BatchesRun:          c.batchesRun,
		BatchesDeferred:     c.batchesDeferred,
		BatchesShrunk:       c.batchesShrunk,
		CostUnits:           c.costUnits,
	}
	if c.lastErr != nil {
		st.LastError = c.lastErr.Error()
	}
	return st
}

// Fleet runs one controller per shard as independent failure domains:
// each gets its own goroutine and staggered start, none shares state
// with another, and a controller wedged inside its shard's write lock
// (or its WAL) delays nothing but its own shard.
type Fleet struct {
	ctls []*Controller
}

// NewFleet groups the given controllers (one per shard, in shard
// order).
func NewFleet(ctls ...*Controller) *Fleet {
	if len(ctls) == 0 {
		panic("repair: fleet needs at least one controller")
	}
	return &Fleet{ctls: ctls}
}

// Controllers exposes the fleet's members, in shard order.
func (f *Fleet) Controllers() []*Controller { return f.ctls }

// Run starts every controller and blocks until ctx ends and all loops
// exit. Start times are staggered across one base interval — shard i
// waits (i + jitter)·Interval/N — so N shards never fire their fix
// batches in lockstep and spike latency together. Log lines are
// prefixed with the shard.
func (f *Fleet) Run(ctx context.Context, logf func(format string, args ...interface{})) {
	rng := xrand.New()
	n := len(f.ctls)
	var wg sync.WaitGroup
	for i, c := range f.ctls {
		delay := time.Duration((float64(i) + rng.Float64()) * float64(c.cfg.Interval) / float64(n))
		wg.Add(1)
		go func(i int, c *Controller, delay time.Duration) {
			defer wg.Done()
			ctlLogf := logf
			if logf != nil {
				ctlLogf = func(format string, args ...interface{}) {
					logf("shard %d: "+format, append([]interface{}{i}, args...)...)
				}
			}
			c.Run(ctx, delay, ctlLogf)
		}(i, c, delay)
	}
	wg.Wait()
}

// Status returns every controller's status, in shard order.
func (f *Fleet) Status() []Status {
	out := make([]Status, len(f.ctls))
	for i, c := range f.ctls {
		out[i] = c.Status()
	}
	return out
}

// Mode is the fleet's aggregate mode for attribution: backoff if any
// shard is backing off, else steady.
func (f *Fleet) Mode() string {
	for _, c := range f.ctls {
		c.mu.Lock()
		m := c.mode
		c.mu.Unlock()
		if m == ModeBackoff {
			return m.String()
		}
	}
	return ModeSteady.String()
}

// WedgedShards lists shards whose controller has hit the consecutive-
// failure threshold, for /readyz to name — matching the degraded-shard
// reporting style.
func (f *Fleet) WedgedShards() []int {
	var bad []int
	for i, c := range f.ctls {
		if c.Status().Wedged {
			bad = append(bad, i)
		}
	}
	return bad
}

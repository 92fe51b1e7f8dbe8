// Command ngfix-server serves an NGFix index over HTTP with continuous
// online fixing: the index repairs itself with the query stream it
// observes, the paper's production deployment story.
//
// Usage:
//
//	ngfix-server -base base.ngfx -metric cosine -addr :8080 -autofix
//	ngfix-server -index prebuilt.ngig -addr :8080
//	ngfix-server -index prebuilt.ngig -snapshot-dir ./state   # durable
//	ngfix-server -snapshot-dir ./state                        # recover & serve
//	ngfix-server -snapshot-dir ./state -reshard               # offline N→2N split
//
// Endpoints: POST /v1/{search,insert,delete,fix,purge,snapshot,reshard},
// GET /v1/stats, GET /healthz, GET /readyz, GET /metrics (Prometheus
// text format; disable with -metrics=false). See internal/server for
// the JSON shapes, and README "Observability" for the metric families,
// the slow-query log (-slow-query-ms), and the pprof endpoints
// (-pprof).
//
// With -snapshot-dir the server is crash-safe: it journals every insert,
// delete, and fix batch to an op log, snapshots the graph on a cadence
// (and on SIGTERM/SIGINT, after draining in-flight requests), and on
// startup recovers the last acknowledged state from the newest snapshot
// plus the log — including the extra edges learned from live traffic.
//
// With -shards N the index splits into N shards, each its own fixer,
// op log, and snapshot directory (shard-<i>/ under -snapshot-dir, with
// a MANIFEST pinning the count): searches scatter-gather across all
// shards, mutations route by id, and a stalled or degraded shard never
// blocks the others. The default -shards 1 keeps the pre-sharding
// single-directory layout, byte-compatible with existing state; a
// sharded directory remembers its count, so restarts need no flag.
//
// The shard count can grow N→2N without stopping the server: POST
// /v1/reshard streams every parent shard through two filtered children,
// tails the parents' op logs while they keep serving, then cuts over
// behind a bounded write pause (searches are never paused; mutations
// that race the cutover are retried onto the new topology). Progress is
// reported in /v1/stats and the ngfix_reshard_* families. The -reshard
// flag runs the same split offline against a quiesced directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/policy"
	"ngfix/internal/pq"
	"ngfix/internal/repair"
	"ngfix/internal/replica"
	"ngfix/internal/server"
	"ngfix/internal/shard"
	"ngfix/internal/shard/reshard"
	"ngfix/internal/vec"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("ngfix-server", flag.ExitOnError)
	addr := fl.String("addr", ":8080", "listen address")
	indexPath := fl.String("index", "", "prebuilt index file (from ngfix-build)")
	basePath := fl.String("base", "", "base vectors file (builds an HNSW base graph at startup)")
	metricName := fl.String("metric", "l2", "metric when building from -base: l2 | ip | cosine")
	m := fl.Int("m", 16, "HNSW M when building from -base")
	efc := fl.Int("efc", 200, "HNSW efConstruction when building from -base")
	lex := fl.Int("lex", 48, "extra-degree budget for online fixing")
	batch := fl.Int("fix-batch", 128, "queries per online fix batch")
	sample := fl.Int("fix-sample", 1, "record every n-th query for fixing")
	autofix := fl.Bool("autofix", false, "fix synchronously when the batch fills (otherwise POST /v1/fix or use -fix-interval)")
	interval := fl.Duration("fix-interval", 0, "background fixing period (0 disables)")
	repairMode := fl.String("repair-mode", "adaptive", "background repair policy with -fix-interval: adaptive (per-shard signal-triggered controller with hysteresis and pressure backoff) | interval (legacy fixed cadence)")
	repairThetaHi := fl.Float64("repair-theta-hi", 0.3, "unreachable-rate EWMA that enters eager repair (adaptive mode)")
	repairThetaLo := fl.Float64("repair-theta-lo", 0.1, "unreachable-rate EWMA below which eager repair may exit after the dwell (adaptive mode)")
	repairDwell := fl.Duration("repair-dwell", 5*time.Second, "minimum time in eager repair before exiting (hysteresis; adaptive mode)")
	repairMaxInterval := fl.Duration("repair-max-interval", 0, "cadence ceiling repair stretches toward under admission pressure (0 means 16x -fix-interval)")
	repairMinBatch := fl.Int("repair-min-batch", 8, "smallest fix batch the controller pays admission for before deferring a tick (adaptive mode)")
	snapDir := fl.String("snapshot-dir", "", "directory for snapshots + op log (enables crash safety and recovery)")
	shards := fl.Int("shards", 1, "shard count: each shard gets its own fixer, op log, and snapshot subdirectory; searches scatter-gather (a sharded -snapshot-dir pins it; grow it N→2N with /v1/reshard or -reshard)")
	reshardFlag := fl.Bool("reshard", false, "offline maintenance: double -snapshot-dir's shard count (N→2N) and exit; the directory must hold existing state and no server may be running over it")
	snapEvery := fl.Int("snapshot-every", 8, "automatic snapshot every N fix batches (0 disables; needs -snapshot-dir)")
	snapOps := fl.Int("snapshot-ops", 4096, "automatic snapshot every M inserts+deletes (0 disables; needs -snapshot-dir)")
	oplog := fl.Bool("oplog", true, "journal inserts/deletes/fix batches between snapshots (needs -snapshot-dir)")
	pqOn := fl.Bool("pq", false, "memory-tiered serving: navigate the graph on compressed PQ-ADC lookups and exact-rerank only the top candidates; snapshots persist the quantizer so recovery re-encodes instead of retraining")
	pqM := fl.Int("pq-m", 0, "PQ subspace count (0 picks the largest of 2..8 dividing the dimension; errors on dimensions only 1 divides)")
	pqKS := fl.Int("pq-ks", 64, "PQ centroids per subspace (max 256)")
	pqRerank := fl.Int("pq-rerank", 4, "exact-rerank pool factor: each search reranks factor*k compressed candidates at full precision")
	pqTier := fl.Bool("pq-tier", true, "with -pq and -snapshot-dir: demote the full rerank vectors to an mmap'd per-shard tier file (page cache instead of heap); without a snapshot dir reranks read the in-heap matrix")
	drainTimeout := fl.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	maxInflight := fl.Int("max-inflight", 64, "admission capacity in cost units (a search costs ~ef/100, rounded up; 0 disables admission control)")
	queueDepth := fl.Int("queue-depth", 0, "bounded wait queue beyond capacity; excess requests get 429 (0 means 2x -max-inflight)")
	searchTimeout := fl.Duration("search-timeout", 2*time.Second, "per-request compute budget; expired searches return partial results with truncated:true (0 disables)")
	efFloor := fl.Int("ef-floor", 0, "minimum ef under queue pressure: effective ef shrinks toward this floor as the queue fills (0 disables degradation)")
	adaptiveEF := fl.Bool("adaptive-ef", false, "pick each search's ef from its similarity to recent traffic (self-calibrating; explicit client ef becomes a ceiling)")
	answerCacheSize := fl.Int("answer-cache-size", 0, "answer-cache capacity in entries for exactly-repeated queries (0 disables; invalidated on every mutation)")
	augmentRate := fl.Float64("augment-rate", 0, "fraction of served queries that seed Gaussian-perturbed synthetic repair queries, 0..1 (0 disables)")
	augmentSigma := fl.Float64("augment-sigma", 0.3, "expected perturbation norm for -augment-rate synthetic queries")
	metricsOn := fl.Bool("metrics", true, "serve Prometheus metrics on GET /metrics")
	slowQueryMS := fl.Int("slow-query-ms", 0, "log every search at or over this many milliseconds (0 disables the slow-query log)")
	pprofOn := fl.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (profiling data; enable only on trusted networks)")
	replicaOf := fl.String("replica-of", "", "run as a read-only follower of a leader: a URL (http://host:port, pulls over /v1/replicate/*) or the leader's snapshot directory; serves always-stale searches, no mutations")
	selfReplica := fl.Bool("self-replica", false, "keep one in-process read replica per shard fed from this server's own stores (needs -snapshot-dir): reads on a frozen or degraded shard fail over to the replica, flagged stale")
	replicaLagMax := fl.Int64("replica-lag-max", 0, "most WAL bytes a replica may lag and still stand in for its shard (0: any bootstrapped replica serves)")
	failoverAfter := fl.Duration("failover-after", 150*time.Millisecond, "hedge delay before a primary read is retried on its replica (with -self-replica; 0 fails over only degraded shards)")
	replicaPoll := fl.Duration("replica-poll", 100*time.Millisecond, "replica WAL tail cadence")
	fl.Parse(args)
	if *repairMode != "adaptive" && *repairMode != "interval" {
		log.Printf("-repair-mode must be adaptive or interval, got %q", *repairMode)
		return 1
	}
	shardsFlagSet := false
	fl.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsFlagSet = true
		}
	})

	// Offline reshard mode: split, report, exit — no listener.
	if *reshardFlag {
		return runReshardCLI(*snapDir, *shards, shardsFlagSet, core.Options{LEx: *lex})
	}

	var reg *obs.Registry
	if *metricsOn {
		reg = obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
	}

	// Follower mode: no primaries, no stores of our own — just one read
	// replica per shard tailing the leader, served read-only.
	if *replicaOf != "" {
		return runFollower(followerConfig{
			target: *replicaOf, shards: *shards, shardsFlagSet: shardsFlagSet,
			opts: core.Options{LEx: *lex}, lagMax: *replicaLagMax, poll: *replicaPoll,
			addr: *addr, reg: reg, drainTimeout: *drainTimeout,
		})
	}

	// --- Topology resolution: a sharded snapshot dir pins its shard count
	// and epoch via the manifest (routing is a function of the count, and
	// a committed reshard moves the tree under epoch-<e>/); a legacy dir
	// is one shard; a fresh dir takes the flag. Any crashed reshard is
	// resolved here first — to exactly the old or the new topology.
	n := *shards
	var layout persist.Layout
	var stores []*persist.Store
	if *snapDir != "" {
		var err error
		layout, err = persist.ResolveLayout(nil, *snapDir, *shards, shardsFlagSet)
		if err != nil {
			log.Print(err)
			return 1
		}
		n = layout.Shards
		stores, err = persist.OpenShardedAt(*snapDir, n, layout.Epoch, persist.Options{})
		if err != nil {
			log.Printf("open snapshot dir: %v", err)
			return 1
		}
	} else if n < 1 {
		log.Printf("-shards must be at least 1, got %d", n)
		return 1
	}

	// Telemetry layout: with one shard every family lives unlabeled on
	// the global registry, byte-compatible with pre-sharding dashboards.
	// With N shards each fixer/store registers on its own registry
	// carrying a shard="<i>" const label; /metrics merges them.
	var shardRegs []*obs.Registry
	fixerReg := func(i int) *obs.Registry { return reg }
	if reg != nil && n > 1 {
		shardRegs = make([]*obs.Registry, n)
		for i := range shardRegs {
			shardRegs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		}
		fixerReg = func(i int) *obs.Registry { return shardRegs[i] }
	}
	for i, st := range stores {
		if r := fixerReg(i); r != nil {
			st.RegisterMetrics(r)
		}
	}

	// --- Index acquisition: recover per shard from the snapshot dir when
	// it has state, otherwise build/load, partition row-interleaved
	// (global id = original row index), and seed the dir.
	var ixs []*core.Index
	opts := core.Options{LEx: *lex}
	recovered := len(stores) > 0 && stores[0].HasState()
	switch {
	case recovered:
		var replayed []int
		var err error
		ixs, replayed, err = shard.Recover(stores, opts)
		if err != nil {
			log.Printf("recover: %v", err)
			return 1
		}
		for i, ix := range ixs {
			log.Printf("recovered shard %d/%d from %s: generation %d, %d vectors (%d live), %d ops replayed",
				i, n, stores[i].Dir(), stores[i].Generation(), ix.G.Len(), ix.G.Live(), replayed[i])
		}
	case *indexPath != "":
		g, err := graph.Load(*indexPath)
		if err != nil {
			log.Printf("load index: %v", err)
			return 1
		}
		log.Printf("loaded index: %d vectors, dim %d, metric %s", g.Len(), g.Dim(), g.Metric)
		if n == 1 {
			// Unsharded: serve the prebuilt graph exactly as loaded.
			ixs = []*core.Index{core.New(g, opts)}
		} else {
			// A monolithic index cannot be split edge-for-edge; partition
			// its vectors and rebuild each shard's base graph.
			log.Printf("resharding prebuilt index into %d shards (per-shard base graphs rebuilt with -m/-efc)", n)
			ixs = buildShards(g.Vectors, n, hnsw.Config{M: *m, EFConstruction: *efc, Metric: g.Metric, Seed: 7}, opts)
		}
	case *basePath != "":
		base, err := dataset.LoadMatrix(*basePath)
		if err != nil {
			log.Printf("load base: %v", err)
			return 1
		}
		metric, err := parseMetric(*metricName)
		if err != nil {
			log.Print(err)
			return 1
		}
		start := time.Now()
		ixs = buildShards(base, n, hnsw.Config{M: *m, EFConstruction: *efc, Metric: metric, Seed: 7}, opts)
		log.Printf("built HNSW base over %d vectors in %d shard(s) in %s", base.Rows(), n, time.Since(start).Round(time.Millisecond))
	default:
		log.Print("one of -index, -base, or a non-empty -snapshot-dir is required")
		return 1
	}

	fixCfg := fixerSettings{
		opts: opts, batch: *batch, sample: *sample, autofix: *autofix,
		oplog: *oplog, snapEvery: *snapEvery, snapOps: *snapOps,
	}
	fixers := fixCfg.build(stores, ixs, fixerReg)
	if len(stores) > 0 && !*oplog {
		log.Print("op log disabled (-oplog=false): mutations between snapshots will not survive a crash")
	}

	// Compressed serving: prefer the recovered sidecar (attach re-encodes
	// only the WAL-replayed tail against the frozen codebooks — codes stay
	// bit-identical across the crash); train only when no generation has
	// one or the sidecar cannot describe the recovered graph.
	pqCfg := pqSettings{on: *pqOn, m: *pqM, ks: *pqKS, rerank: *pqRerank, tier: *pqTier}
	if pqCfg.on {
		if err := wirePQ(fixers, stores, pqCfg, recovered); err != nil {
			log.Print(err)
			return 1
		}
	}

	// Seal startup state into a fresh generation per shard: recovery
	// never appends to a log that might end in a torn record, and a
	// fresh dir gets its first durable snapshot before serving a single
	// request. Sealing after PQ enable means the first generation already
	// carries the quantizer sidecar.
	if len(stores) > 0 {
		for i, f := range fixers {
			if err := f.Snapshot(); err != nil {
				log.Printf("shard %d: initial snapshot: %v", i, err)
				return 1
			}
		}
	}
	group, err := shard.NewGroup(fixers)
	if err != nil {
		log.Printf("assemble shard group: %v", err)
		return 1
	}

	s := server.NewSharded(group)
	if len(stores) > 0 {
		// Closures load the current group: a live reshard swaps it, and
		// snapshots must land on the topology actually serving.
		s.SnapshotFunc = func() error { return s.Group().Snapshot() }
		// Any persisted server can feed followers: the replication
		// endpoints read only the store, never the fixers' locks.
		s.SetStores(stores)
	}
	var replicaSet *replica.Set
	if *selfReplica {
		if len(stores) == 0 {
			log.Print("-self-replica needs -snapshot-dir (replicas tail the store's op log)")
			return 1
		}
		reps := make([]*replica.Replica, len(stores))
		rr := make([]shard.ReadReplica, len(stores))
		for i, st := range stores {
			reps[i] = replica.New(replica.StoreSource{St: st}, replica.Config{
				Shard: i, Opts: opts, LagMax: *replicaLagMax, Poll: *replicaPoll,
				Logf: log.Printf,
			})
			rr[i] = reps[i]
			if r := fixerReg(i); r != nil {
				reps[i].RegisterMetrics(r)
			}
		}
		replicaSet, err = replica.NewSet(reps)
		if err != nil {
			log.Printf("assemble replica set: %v", err)
			return 1
		}
		pol := shard.FailoverPolicy{
			After: *failoverAfter,
			// A shard whose durability already failed is known-bad: route
			// its reads to the replica immediately, no hedge delay.
			Unhealthy: func(sh int) bool { return group.Fixer(sh).Degraded() },
		}
		if err := group.SetReplicas(rr, pol); err != nil {
			log.Printf("attach replicas: %v", err)
			return 1
		}
		s.Replicas = replicaSet
		log.Printf("self-replica enabled: %d per-shard read replicas, failover after %s, lag max %d bytes",
			len(reps), *failoverAfter, *replicaLagMax)
	}
	if *maxInflight > 0 {
		s.Admission = admission.New(admission.Config{Capacity: *maxInflight, QueueDepth: *queueDepth})
	}
	s.SearchTimeout = *searchTimeout
	s.EFFloor = *efFloor
	if *adaptiveEF || *answerCacheSize > 0 || *augmentRate > 0 {
		if *augmentRate < 0 || *augmentRate > 1 {
			log.Printf("-augment-rate must be in 0..1, got %g", *augmentRate)
			return 1
		}
		gm := ixs[0].G.Metric
		var adaptive *policy.Adaptive
		if *adaptiveEF {
			// Calibration searches run sequentially within a shard fan-out
			// (parallel 1): they are background work and should not steal
			// cores from serving, which admission gating alone can't ensure.
			adaptive = policy.NewAdaptive(group.Dim(), policy.AdaptiveConfig{Metric: gm, Seed: 11},
				func(q []float32, k, ef int) []graph.Result {
					res, _ := s.Group().SearchCtx(context.Background(), q, k, ef, 1)
					return res
				})
		}
		augmenter := policy.NewAugmenter(policy.AugmentConfig{
			Rate: *augmentRate, Sigma: *augmentSigma,
			Normalize: gm == vec.Cosine, Seed: 13,
		})
		var acquire func() (func(), bool)
		if s.Admission != nil {
			adm := s.Admission
			acquire = func() (func(), bool) { return adm.TryAcquire(adm.FixCost(1)) }
		}
		eng := policy.NewEngine(policy.NewCache(*answerCacheSize), adaptive, augmenter,
			func(qs *vec.Matrix) int { return s.Group().RecordSynthetic(qs) }, acquire)
		s.EnablePolicy(eng)
		log.Printf("policy layer enabled: adaptive-ef=%v answer-cache-size=%d augment-rate=%g",
			*adaptiveEF, *answerCacheSize, *augmentRate)
	}

	// Background repair runs behind a restartable wrapper so the reshard
	// cutover can quiesce it and restart it on the post-split topology.
	maint := &maintenance{
		s: s, interval: *interval, legacy: *repairMode == "interval",
		repairCfg: repair.Config{
			Interval:    *interval,
			MaxInterval: *repairMaxInterval,
			ThetaHi:     *repairThetaHi,
			ThetaLo:     *repairThetaLo,
			Dwell:       *repairDwell,
			MinBatch:    *repairMinBatch,
		},
	}

	// Live resharding needs the stores (the split is durable-first) and
	// owns the whole serving-stack swap; wire before EnableMetrics so the
	// ngfix_reshard_* families register.
	var mgr *reshardManager
	if len(stores) > 0 {
		if *selfReplica {
			// Replicas tail specific parent stores; retiring those under a
			// running replica set is not supported yet.
			s.ReshardFunc = func() (int, int, error) {
				return 0, 0, errors.New("live resharding with -self-replica is not supported; restart without it to reshard")
			}
		} else {
			asm := &assembler{s: s, maint: maint, adm: s.Admission, reg: reg, fix: fixCfg, pq: pqCfg}
			mgr = &reshardManager{
				s: s, asm: asm, maint: maint,
				root: *snapDir, opts: opts, layout: layout, stores: stores,
			}
			if s.Admission != nil {
				mgr.acquire = s.Admission.TryAcquire
			}
			s.ReshardFunc = mgr.Start
			s.ReshardProgress = mgr.Progress
		}
	}
	if reg != nil {
		s.EnableMetrics(reg, shardRegs...) // also wires the admission controller's families
	}
	if *slowQueryMS > 0 {
		s.SlowQueries = &obs.SlowQueryLog{
			Threshold: time.Duration(*slowQueryMS) * time.Millisecond,
			Logf:      log.Printf,
		}
	}

	// The pprof mux wraps the API handler so profiling never rides on the
	// DefaultServeMux (whose other registrations we don't control).
	var handler http.Handler = s
	if *pprofOn {
		top := http.NewServeMux()
		top.HandleFunc("/debug/pprof/", pprof.Index)
		top.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		top.HandleFunc("/debug/pprof/profile", pprof.Profile)
		top.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		top.HandleFunc("/debug/pprof/trace", pprof.Trace)
		top.Handle("/", s)
		handler = top
		log.Print("pprof enabled on /debug/pprof/")
	}

	// --- Lifecycle: configured http.Server, signal-driven graceful
	// shutdown, context-stopped background fixer.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	maint.base = ctx
	if mgr != nil {
		mgr.base = ctx // shutdown cancels ctx, aborting any live reshard
	}

	if replicaSet != nil {
		go replicaSet.Run(ctx)
	}

	if *interval > 0 {
		if !maint.legacy {
			fleet := maint.buildFleet(group, s.Admission, fixerReg)
			s.SetRepair(fleet)
			maint.fleet = fleet
		}
		maint.start()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("listen: %v", err)
		return 1
	}
	log.Printf("serving on %s (shards %d, fix batch %d, autofix %v, interval %s, snapshots %v)",
		ln.Addr(), n, *batch, *autofix, *interval, len(stores) > 0)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.SetReady(true)

	select {
	case err := <-errCh:
		log.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	// Drain: stop advertising readiness, finish in-flight requests, and
	// let any live reshard observe the canceled context and abort.
	log.Printf("shutdown signal received, draining (timeout %s)", *drainTimeout)
	s.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if mgr != nil {
		mgr.Await(shutCtx)
	}

	// Fold any still-pending recorded queries into the graph, then make
	// the final state durable. Re-read group and stores: a reshard may
	// have swapped both since startup.
	finalGroup := s.Group()
	finalStores := s.Stores()
	if rep, err := finalGroup.FixPendingChecked(); err != nil {
		log.Printf("final fix: %v", err)
	} else if rep.Queries > 0 {
		log.Printf("final fix: %d queries, +%d edges", rep.Queries, rep.NGFixEdges+rep.RFixEdges)
	}
	if len(finalStores) > 0 {
		if err := finalGroup.Snapshot(); err != nil {
			log.Printf("final snapshot: %v", err)
			return 1
		}
		gens := make([]string, len(finalStores))
		for i, st := range finalStores {
			if err := st.Close(); err != nil {
				log.Printf("close store shard %d: %v", i, err)
				return 1
			}
			gens[i] = strconv.FormatUint(st.Generation(), 10)
		}
		log.Printf("final snapshot written (generation %s)", strings.Join(gens, ","))
	}
	if mgr != nil {
		mgr.CloseRetired()
	}
	log.Print("shutdown complete")
	return 0
}

// fixerSettings is the flag-derived online-fixer wiring, kept as a value
// because the reshard assembler replays it for every post-split child.
type fixerSettings struct {
	opts               core.Options
	batch, sample      int
	autofix            bool
	oplog              bool
	snapEvery, snapOps int
}

// build wraps each index in an online fixer wired to its store's WAL
// (or the snapshot-only shim with -oplog=false) and its shard's metric
// registry. stores may be empty (in-memory serving).
func (c fixerSettings) build(stores []*persist.Store, ixs []*core.Index, regAt func(int) *obs.Registry) []*core.OnlineFixer {
	fixers := make([]*core.OnlineFixer, len(ixs))
	for i, ix := range ixs {
		var wal core.WAL
		if len(stores) > 0 {
			if c.oplog {
				wal = stores[i]
			} else {
				wal = snapshotOnly{stores[i]}
			}
		}
		fixers[i] = core.NewOnlineFixer(ix, core.OnlineConfig{
			BatchSize: c.batch, SampleEvery: c.sample, AutoFix: c.autofix,
			WAL:                  wal,
			SnapshotEveryBatches: c.snapEvery, SnapshotEveryMutations: c.snapOps,
			Metrics: regAt(i),
		})
	}
	return fixers
}

// pqSettings is the flag-derived compressed-serving wiring.
type pqSettings struct {
	on            bool
	m, ks, rerank int
	tier          bool
}

// wirePQ enables compressed serving on every fixer, preferring the
// store's sealed sidecar when preferSidecar (recovery and post-reshard
// children: codes stay bit-identical, no retraining) and training fresh
// codebooks only when there is none or it cannot describe the graph.
func wirePQ(fixers []*core.OnlineFixer, stores []*persist.Store, cfg pqSettings, preferSidecar bool) error {
	for i, f := range fixers {
		pcfg := core.PQConfig{M: cfg.m, KS: cfg.ks, RerankFactor: cfg.rerank}
		if len(stores) > 0 && cfg.tier {
			pcfg.TierPath = filepath.Join(stores[i].Dir(), "vectors.tier")
		}
		attached := false
		if preferSidecar && len(stores) > 0 {
			switch q, err := stores[i].LoadPQ(); {
			case err == nil:
				if aerr := f.AttachPQ(q, pcfg); aerr != nil {
					log.Printf("shard %d: pq sidecar rejected (%v); retraining", i, aerr)
				} else {
					attached = true
				}
			case errors.Is(err, persist.ErrNoPQ):
				// Sealed without PQ — train below.
			default:
				log.Printf("shard %d: pq sidecar unreadable (%v); retraining", i, err)
			}
		}
		if !attached {
			if err := f.EnablePQ(pcfg); err != nil {
				return fmt.Errorf("shard %d: enable pq: %w", i, err)
			}
		}
		st, _ := f.PQStats()
		log.Printf("shard %d: pq serving %s (m=%d ks=%d rerank=%dx): resident %d bytes (plus a %d-byte codebook scan copy) vs %d full-precision",
			i, map[bool]string{true: "recovered", false: "trained"}[attached],
			st.M, st.KS, st.Rerank, st.ResidentBytes, st.ScanCopyBytes, st.FullVectorBytes)
	}
	return nil
}

// maintenance owns the background repair lifecycle so a reshard can
// quiesce it for the cutover window and restart it — on whatever group
// is serving by then. Adaptive mode runs the controller fleet (swapped
// per topology via setFleet); legacy interval mode runs the group's
// fixed cadence loop.
type maintenance struct {
	s         *server.Server
	interval  time.Duration
	legacy    bool // -repair-mode=interval
	repairCfg repair.Config
	base      context.Context

	mu     sync.Mutex
	fleet  *repair.Fleet
	cancel context.CancelFunc
	done   chan struct{}
}

// buildFleet creates one adaptive controller per shard of grp, metrics
// registered on its shard's registry. Nil in legacy mode or when
// background repair is off.
func (m *maintenance) buildFleet(grp *shard.Group, adm *admission.Controller, regAt func(int) *obs.Registry) *repair.Fleet {
	if m.interval <= 0 || m.legacy {
		return nil
	}
	ctls := make([]*repair.Controller, grp.Shards())
	for i := range ctls {
		ctls[i] = repair.New(i, grp.Fixer(i), adm, m.repairCfg)
		if r := regAt(i); r != nil {
			ctls[i].RegisterMetrics(r)
		}
	}
	return repair.NewFleet(ctls...)
}

// setFleet swaps in the post-reshard fleet the next start will run.
func (m *maintenance) setFleet(f *repair.Fleet) {
	m.mu.Lock()
	m.fleet = f
	m.mu.Unlock()
}

// start launches background repair for the current serving group; a
// no-op when repair is off or already running.
func (m *maintenance) start() {
	if m.interval <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(m.base)
	done := make(chan struct{})
	if m.legacy {
		grp := m.s.Group()
		go func() {
			defer close(done)
			grp.RunBackground(ctx, m.interval, log.Printf)
		}()
	} else if m.fleet != nil {
		fleet := m.fleet
		go func() {
			defer close(done)
			fleet.Run(ctx, log.Printf)
		}()
	} else {
		cancel()
		return
	}
	m.cancel, m.done = cancel, done
}

// stop halts background repair and waits for its loops to exit — the
// reshard cutover's quiesce. No-op when not running.
func (m *maintenance) stop() {
	m.mu.Lock()
	cancel, done := m.cancel, m.done
	m.cancel, m.done = nil, nil
	m.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// assembler rebuilds the serving layer for a post-split topology — the
// same wiring startup does, replayed over the child stores and indexes:
// fixers with WAL and snapshot cadence, per-shard telemetry registries,
// PQ attach from the sidecars the coordinator sealed, and a fresh repair
// fleet. Assemble runs pre-commit (a failure aborts the reshard);
// Install runs post-commit and flips every serving-path pointer.
type assembler struct {
	s     *server.Server
	maint *maintenance
	adm   *admission.Controller
	reg   *obs.Registry // global registry; nil with -metrics=false
	fix   fixerSettings
	pq    pqSettings

	// Staged between Assemble and Install by the single reshard run.
	regs  []*obs.Registry
	fleet *repair.Fleet
}

func (a *assembler) Assemble(stores []*persist.Store, ixs []*core.Index) (*shard.Group, error) {
	n := len(stores)
	var regs []*obs.Registry
	regAt := func(int) *obs.Registry { return nil }
	if a.reg != nil {
		// Post-split is always multi-shard, so children get labeled
		// registries even when the parent ran unlabeled single-shard.
		regs = make([]*obs.Registry, n)
		for i := range regs {
			regs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		}
		regAt = func(i int) *obs.Registry { return regs[i] }
		for i, st := range stores {
			st.RegisterMetrics(regs[i])
		}
	}
	fixers := a.fix.build(stores, ixs, regAt)
	if a.pq.on {
		if err := wirePQ(fixers, stores, a.pq, true); err != nil {
			return nil, err
		}
	}
	grp, err := shard.NewGroup(fixers)
	if err != nil {
		return nil, err
	}
	a.regs = regs
	a.fleet = a.maint.buildFleet(grp, a.adm, regAt)
	return grp, nil
}

func (a *assembler) Install(g *shard.Group, stores []*persist.Store) {
	a.s.SwapGroup(g)
	a.s.SetStores(stores)
	a.s.SetShardRegistries(a.regs...)
	a.s.SetRepair(a.fleet)
	a.maint.setFleet(a.fleet)
}

// reshardManager serializes live resharding behind POST /v1/reshard:
// one run at a time, finished runs' totals folded into Progress so the
// ngfix_reshard_* counter families stay monotonic across consecutive
// doublings, and retired parent stores closed at shutdown (straggler
// requests may briefly hold them after a cutover).
type reshardManager struct {
	s     *server.Server
	asm   *assembler
	maint *maintenance
	root  string
	opts  core.Options
	// acquire throttles streaming/tailing work through admission.
	acquire func(cost int) (release func(), ok bool)
	// base is the process-lifetime context; shutdown cancels it, which
	// aborts a live reshard back to the old topology.
	base context.Context

	mu      sync.Mutex
	running bool
	cur     *reshard.Resharder
	layout  persist.Layout
	stores  []*persist.Store
	retired []*persist.Store
	acc     reshard.Progress // finished runs' counter totals
}

// Start kicks off one N→2N split in the background and reports the
// topology change, or ErrReshardInProgress while one is running.
func (m *reshardManager) Start() (from, to int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return 0, 0, server.ErrReshardInProgress
	}
	if m.cur != nil {
		// Fold the finished run into the monotonic totals before its
		// Progress is replaced by the new run's.
		p := m.cur.Progress()
		m.acc.RowsStreamed += p.RowsStreamed
		m.acc.OpsTailed += p.OpsTailed
		m.acc.OpsDiscarded += p.OpsDiscarded
		m.acc.Resyncs += p.Resyncs
		m.acc.CutoverAttempts += p.CutoverAttempts
		m.cur = nil
	}
	layout, stores := m.layout, m.stores
	r, err := reshard.New(reshard.Config{
		Root: m.root, Stores: stores, Layout: layout,
		Opts:    m.opts,
		Group:   m.s.Group(),
		Acquire: m.acquire,
		Quiesce: func() func() {
			m.maint.stop()
			return m.maint.start
		},
		Assemble: m.asm.Assemble,
		Install:  m.asm.Install,
		Logf:     log.Printf,
	})
	if err != nil {
		return 0, 0, err
	}
	m.cur, m.running = r, true
	go m.drive(r, layout, stores)
	return layout.Shards, 2 * layout.Shards, nil
}

func (m *reshardManager) drive(r *reshard.Resharder, old persist.Layout, oldStores []*persist.Store) {
	err := r.Run(m.base)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running = false
	if err != nil {
		log.Printf("reshard: %v", err)
		return
	}
	m.layout = persist.Layout{Shards: 2 * old.Shards, Epoch: old.Epoch + 1}
	m.stores = m.s.Stores() // Install swapped these to the children
	m.retired = append(m.retired, oldStores...)
}

// Progress is the /v1/stats and metrics view: the current (or most
// recent) run's counters plus every earlier run's totals.
func (m *reshardManager) Progress() reshard.Progress {
	m.mu.Lock()
	cur, acc, layout := m.cur, m.acc, m.layout
	m.mu.Unlock()
	p := reshard.Progress{State: reshard.StateIdle, FromShards: layout.Shards, ToShards: 2 * layout.Shards}
	if cur != nil {
		p = cur.Progress()
	}
	p.RowsStreamed += acc.RowsStreamed
	p.OpsTailed += acc.OpsTailed
	p.OpsDiscarded += acc.OpsDiscarded
	p.Resyncs += acc.Resyncs
	p.CutoverAttempts += acc.CutoverAttempts
	return p
}

// Await blocks until no reshard is running or ctx expires. The shutdown
// path calls it after canceling base, so a live run is already aborting.
func (m *reshardManager) Await(ctx context.Context) {
	for {
		m.mu.Lock()
		running := m.running
		m.mu.Unlock()
		if !running {
			return
		}
		select {
		case <-ctx.Done():
			log.Print("shutdown: reshard still winding down after the drain window")
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// CloseRetired closes parent stores retired by committed reshards.
// Deferred to shutdown because straggler requests that captured the old
// group may still read them briefly after a cutover.
func (m *reshardManager) CloseRetired() {
	m.mu.Lock()
	retired := m.retired
	m.retired = nil
	m.mu.Unlock()
	for _, st := range retired {
		st.Close()
	}
}

// runReshardCLI is the offline -reshard mode: split every shard of a
// quiesced snapshot directory in two and exit. Same coordinator as the
// live path, minus a serving group — the WALs are static, so streaming
// catches up immediately and there is nothing to pause or install.
func runReshardCLI(root string, flagShards int, flagSet bool, opts core.Options) int {
	if root == "" {
		log.Print("-reshard needs -snapshot-dir (it doubles an existing on-disk topology)")
		return 1
	}
	layout, err := persist.ResolveLayout(nil, root, flagShards, flagSet)
	if err != nil {
		log.Print(err)
		return 1
	}
	stores, err := persist.OpenShardedAt(root, layout.Shards, layout.Epoch, persist.Options{})
	if err != nil {
		log.Printf("open snapshot dir: %v", err)
		return 1
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	for i, st := range stores {
		if !st.HasState() {
			log.Printf("shard %d of %s holds no state to reshard (build or serve into it first)", i, root)
			return 1
		}
	}
	r, err := reshard.New(reshard.Config{
		Root: root, Stores: stores, Layout: layout, Opts: opts, Logf: log.Printf,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := r.Run(ctx); err != nil {
		log.Printf("reshard: %v", err)
		return 1
	}
	p := r.Progress()
	log.Printf("reshard complete: %d→%d shards (epoch %d), %d rows streamed",
		layout.Shards, 2*layout.Shards, layout.Epoch+1, p.RowsStreamed)
	return 0
}

// followerConfig carries the flags the follower mode needs.
type followerConfig struct {
	target        string // leader URL or snapshot directory
	shards        int
	shardsFlagSet bool
	opts          core.Options
	lagMax        int64
	poll          time.Duration
	addr          string
	reg           *obs.Registry
	drainTimeout  time.Duration
}

// runFollower serves -replica-of: one read replica per leader shard,
// bootstrapped from the leader's snapshots and tailing its op logs,
// behind the read-only follower HTTP surface. Searches answer with
// "stale": true; /readyz holds 503 until every shard replica is
// bootstrapped and within -replica-lag-max.
func runFollower(cfg followerConfig) int {
	n := cfg.shards
	epoch := 0
	overHTTP := strings.HasPrefix(cfg.target, "http://") || strings.HasPrefix(cfg.target, "https://")
	if !overHTTP {
		// A leader directory pins its shard count and epoch via the
		// manifest. Peek, don't resolve: the leader owns that tree, and a
		// read-only follower must never GC a reshard in flight there.
		l, err := persist.PeekLayout(nil, cfg.target, cfg.shards, cfg.shardsFlagSet)
		if err != nil {
			log.Print(err)
			return 1
		}
		n, epoch = l.Shards, l.Epoch
	}
	if n < 1 {
		log.Printf("-shards must be at least 1, got %d", n)
		return 1
	}

	reps := make([]*replica.Replica, n)
	regs := make([]*obs.Registry, 0, n+1)
	if cfg.reg != nil {
		regs = append(regs, cfg.reg)
	}
	for i := range reps {
		var src replica.Source
		if overHTTP {
			src = replica.HTTPSource{Base: strings.TrimRight(cfg.target, "/"), Shard: i}
		} else if n == 1 && epoch == 0 {
			src = replica.DirSource{Dir: cfg.target}
		} else {
			src = replica.DirSource{Dir: persist.ShardDirAt(cfg.target, epoch, i)}
		}
		reps[i] = replica.New(src, replica.Config{
			Shard: i, Opts: cfg.opts, LagMax: cfg.lagMax, Poll: cfg.poll,
			Logf: log.Printf,
		})
		if cfg.reg != nil {
			r := cfg.reg
			if n > 1 {
				r = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
				regs = append(regs, r)
			}
			reps[i].RegisterMetrics(r)
		}
	}
	set, err := replica.NewSet(reps)
	if err != nil {
		log.Printf("assemble replica set: %v", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go set.Run(ctx)

	fol := server.NewFollower(set)
	if cfg.reg != nil {
		fol.EnableMetrics(regs...)
	}
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           fol,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Printf("listen: %v", err)
		return 1
	}
	log.Printf("following %s on %s (%d shard replica(s), epoch %d, lag max %d bytes)", cfg.target, ln.Addr(), n, epoch, cfg.lagMax)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutdown signal received, draining (timeout %s)", cfg.drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	log.Print("shutdown complete")
	return 0
}

// buildShards partitions base row-interleaved (row i → shard i%n, so
// global id == original row index), builds each shard's HNSW base
// graph, and wraps the bottoms as fixable indexes. n==1 degenerates to
// one graph over the whole matrix — identical to the pre-sharding path.
func buildShards(base *vec.Matrix, n int, cfg hnsw.Config, opts core.Options) []*core.Index {
	parts := shard.Partition(base, n)
	ixs := make([]*core.Index, len(parts))
	for i, p := range parts {
		ixs[i] = core.New(hnsw.Build(p, cfg).Bottom(), opts)
	}
	return ixs
}

// snapshotOnly is the -oplog=false durability mode: snapshots still run
// on their cadence, per-op journaling is dropped.
type snapshotOnly struct{ st *persist.Store }

func (snapshotOnly) LogInsert(v []float32) error                   { return nil }
func (snapshotOnly) LogDelete(id uint32) error                     { return nil }
func (snapshotOnly) LogFixEdges(updates []graph.ExtraUpdate) error { return nil }
func (s snapshotOnly) Snapshot(g *graph.Graph) error               { return s.st.Snapshot(g) }
func (s snapshotOnly) SnapshotPQ(g *graph.Graph, q *pq.Quantizer) error {
	return s.st.SnapshotPQ(g, q)
}

func parseMetric(s string) (vec.Metric, error) {
	switch strings.ToLower(s) {
	case "l2", "euclidean":
		return vec.L2, nil
	case "ip", "innerproduct", "dot":
		return vec.InnerProduct, nil
	case "cos", "cosine":
		return vec.Cosine, nil
	}
	return 0, fmt.Errorf("unknown metric %q", s)
}

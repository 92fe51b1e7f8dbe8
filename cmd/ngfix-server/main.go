// Command ngfix-server serves an NGFix index over HTTP with continuous
// online fixing: the index repairs itself with the query stream it
// observes, the paper's production deployment story.
//
// Usage:
//
//	ngfix-server -base base.ngfx -metric cosine -addr :8080 -fix-interval 30s
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
	interval := fl.Duration("fix-interval", 0, "background repair base cadence (0 disables; POST /v1/fix still works)")
	repairMode := fl.String("repair-mode", "adaptive", "background repair policy with -fix-interval: adaptive (per-shard controller with shed-aware attribution and pressure backoff), the only mode")
	// The flags of the removed eager repair mode still parse, so command
	// lines that set them keep starting; setting one only logs that it is
	// gone.
	removed := map[string]bool{"repair-theta-hi": true, "repair-theta-lo": true, "repair-dwell": true}
	fl.Float64("repair-theta-hi", 0, "removed with eager repair: accepted and ignored")
	fl.Float64("repair-theta-lo", 0, "removed with eager repair: accepted and ignored")
	fl.Duration("repair-dwell", 0, "removed with eager repair: accepted and ignored")
	repairMaxInterval := fl.Duration("repair-max-interval", 0, "cadence ceiling repair stretches toward under admission pressure (0 means 16x -fix-interval)")
	repairMinBatch := fl.Int("repair-min-batch", 8, "smallest fix batch the controller pays admission for before deferring a tick")
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
	metricsOn := fl.Bool("metrics", true, "serve Prometheus metrics on GET /metrics")
	slowQueryMS := fl.Int("slow-query-ms", 0, "log every search at or over this many milliseconds (0 disables the slow-query log)")
	pprofOn := fl.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (profiling data; enable only on trusted networks)")
	replicaOf := fl.String("replica-of", "", "run as a read-only follower of a leader: a URL (http://host:port, pulls over /v1/replicate/*) or the leader's snapshot directory; serves always-stale searches, no mutations")
	selfReplica := fl.Bool("self-replica", false, "keep one in-process read replica per shard fed from this server's own stores (needs -snapshot-dir): reads on a frozen or degraded shard fail over to the replica, flagged stale")
	replicaLagMax := fl.Int64("replica-lag-max", 0, "most WAL bytes a replica may lag and still stand in for its shard (0: any bootstrapped replica serves)")
	failoverAfter := fl.Duration("failover-after", 150*time.Millisecond, "hedge delay before a primary read is retried on its replica (with -self-replica; 0 fails over only degraded shards)")
	replicaPoll := fl.Duration("replica-poll", 100*time.Millisecond, "replica WAL tail cadence")
	fl.Parse(args)
	// Every numeric flag against its documented range, in one pass before
	// any work: a bad value is one line naming the flag, not a silent
	// default, a panic, or a failure after the index is built.
	for _, c := range []struct {
		name string
		ok   bool
		want string
	}{
		{"m", *m >= 2, "at least 2"},
		{"efc", *efc >= 1, "at least 1"},
		{"lex", *lex >= 1, "at least 1"},
		{"fix-batch", *batch >= 1, "at least 1"},
		{"fix-sample", *sample >= 1, "at least 1"},
		{"shards", *shards >= 1, "at least 1"},
		{"snapshot-every", *snapEvery >= 0, "at least 0"},
		{"snapshot-ops", *snapOps >= 0, "at least 0"},
		{"pq-m", *pqM >= 0, "at least 0"},
		{"pq-ks", *pqKS >= 1 && *pqKS <= 256, "in 1..256"},
		{"pq-rerank", *pqRerank >= 1, "at least 1"},
		{"max-inflight", *maxInflight >= 0, "at least 0"},
		{"queue-depth", *queueDepth >= 0, "at least 0"},
		{"ef-floor", *efFloor >= 0, "at least 0"},
		{"slow-query-ms", *slowQueryMS >= 0, "at least 0"},
		{"repair-min-batch", *repairMinBatch >= 1, "at least 1"},
		{"replica-lag-max", *replicaLagMax >= 0, "at least 0"},
		{"fix-interval", *interval >= 0, "at least 0s"},
		{"repair-max-interval", *repairMaxInterval >= 0, "at least 0s"},
		{"drain-timeout", *drainTimeout >= 0, "at least 0s"},
		{"search-timeout", *searchTimeout >= 0, "at least 0s"},
		{"failover-after", *failoverAfter >= 0, "at least 0s"},
		{"replica-poll", *replicaPoll > 0, "more than 0s"},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "ngfix-server: -%s %s: must be %s\n", c.name, fl.Lookup(c.name).Value, c.want)
			return 2
		}
	}
	if *repairMode != "adaptive" {
		log.Printf("-repair-mode %q: the fixed-cadence interval mode was removed; adaptive is the only repair mode", *repairMode)
		return 1
	}
	shardsFlagSet := false
	fl.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsFlagSet = true
		}
		if removed[f.Name] {
			log.Printf("-%s was removed with eager repair; ignoring it", f.Name)
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
	var adm *admission.Controller
	if *maxInflight > 0 {
		adm = admission.New(admission.Config{Capacity: *maxInflight, QueueDepth: *queueDepth})
	}
	asm := &assembler{
		reg: reg, adm: adm, opts: core.Options{LEx: *lex},
		fix: fixerSettings{
			batch: *batch, sample: *sample,
			oplog: *oplog, snapEvery: *snapEvery, snapOps: *snapOps,
		},
		pq: pqSettings{on: *pqOn, m: *pqM, ks: *pqKS, rerank: *pqRerank, tier: *pqTier},
		repair: repair.Config{
			Interval:    *interval,
			MaxInterval: *repairMaxInterval,
			MinBatch:    *repairMinBatch,
		},
		replicas: replicaSettings{
			selfReplica: *selfReplica, lagMax: *replicaLagMax,
			poll: *replicaPoll, failoverAfter: *failoverAfter,
		},
	}

	// --- Topology: a leader recovers, loads or builds its shards; a
	// follower (-replica-of) owns no primaries and no stores, just one
	// read replica per leader shard. From here on both take one path:
	// admission, metrics, listener, drain and shutdown.
	follower := *replicaOf != ""
	var topo server.Topology
	var layout persist.Layout
	var err error
	if follower {
		topo, err = asm.follow(*replicaOf, *shards, shardsFlagSet)
	} else {
		topo, layout, err = asm.lead(leaderSource{
			snapDir: *snapDir, shards: *shards, shardsFlagSet: shardsFlagSet,
			indexPath: *indexPath, basePath: *basePath, metric: *metricName,
			m: *m, efc: *efc,
		})
	}
	if err != nil {
		log.Print(err)
		return 1
	}

	var s *server.Server
	if follower {
		s = server.NewFollower(topo.Replicas)
	} else {
		s = server.NewSharded(topo.Group)
	}
	s.Install(topo)
	s.Admission = adm
	s.SearchTimeout = *searchTimeout
	s.EFFloor = *efFloor
	if len(topo.Stores) > 0 {
		// Snapshots must land on the topology actually serving: a live
		// reshard may have replaced the startup one.
		s.SnapshotFunc = func() error { return s.Topology().Group.Snapshot() }
	}
	// --- Lifecycle: signal-driven graceful shutdown cancels ctx, which
	// stops background repair and aborts any live reshard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Background repair runs behind a restartable wrapper so the reshard
	// cutover can quiesce it and restart it on the post-split topology.
	maint := &maintenance{s: s, base: ctx}

	// Live resharding needs the stores (the split is durable-first) and
	// replaces the whole serving stack; wire before EnableMetrics so the
	// ngfix_reshard_* families register.
	var mgr *reshardManager
	if len(topo.Stores) > 0 {
		if *selfReplica {
			// Replicas tail specific parent stores; retiring those under a
			// running replica set is not supported yet.
			s.ReshardFunc = func() (int, int, error) {
				return 0, 0, errors.New("live resharding with -self-replica is not supported; restart without it to reshard")
			}
		} else {
			mgr = &reshardManager{
				s: s, asm: asm, maint: maint, base: ctx,
				root: *snapDir, layout: layout, stores: topo.Stores,
			}
			if adm != nil {
				mgr.acquire = adm.TryAcquire
			}
			s.ReshardFunc = mgr.Start
			s.ReshardProgress = mgr.Progress
		}
	}
	if reg != nil {
		s.EnableMetrics(reg) // also wires the admission controller's families
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

	if topo.Replicas != nil {
		go topo.Replicas.Run(ctx)
	}
	maint.start()

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
	log.Printf("serving on %s", ln.Addr())
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
	// the final state durable — on the topology serving now: a reshard
	// may have replaced the startup one.
	final := s.Topology()
	if final.Group != nil {
		if rep, err := final.Group.FixPendingChecked(); err != nil {
			log.Printf("final fix: %v", err)
		} else if rep.Queries > 0 {
			log.Printf("final fix: %d queries, +%d edges", rep.Queries, rep.NGFixEdges+rep.RFixEdges)
		}
	}
	if len(final.Stores) > 0 {
		if err := final.Group.Snapshot(); err != nil {
			log.Printf("final snapshot: %v", err)
			return 1
		}
		gens := make([]string, len(final.Stores))
		for i, st := range final.Stores {
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

// fixerSettings is the flag-derived online-fixer wiring.
type fixerSettings struct {
	batch, sample      int
	oplog              bool
	snapEvery, snapOps int
}

// pqSettings is the flag-derived compressed-serving wiring.
type pqSettings struct {
	on            bool
	m, ks, rerank int
	tier          bool
}

// replicaSettings is the flag-derived replica wiring: -self-replica's
// standbys and -replica-of's followers share the lag bound and cadence.
type replicaSettings struct {
	selfReplica         bool
	lagMax              int64
	poll, failoverAfter time.Duration
}

// assembler is the one place a serving topology is built. Startup runs
// it over the recovered or freshly built indexes (lead) or over a
// leader's shards (follow), and a live reshard runs it over the caught-up
// children before the commit, so no two paths can wire a shard, its
// registry or its replica differently.
type assembler struct {
	reg      *obs.Registry // global registry; nil with -metrics=false
	adm      *admission.Controller
	opts     core.Options // index options, for shards and replicas alike
	fix      fixerSettings
	pq       pqSettings
	repair   repair.Config // Interval 0: no background repair
	replicas replicaSettings
}

// assemble turns per-shard stores (empty for in-memory serving) and
// indexes into a ready topology: a shard="<i>" registry per shard (at
// every shard count, so dashboards need one query shape), online fixers
// journaling to their stores, compressed serving (preferring the
// stores' sealed sidecars when preferSidecar), the group, one repair
// controller per shard, and with -self-replica one read replica per
// shard.
func (a *assembler) assemble(stores []*persist.Store, ixs []*core.Index, preferSidecar bool) (server.Topology, error) {
	topo := server.Topology{Stores: stores, Registries: a.shardRegistries(len(ixs))}
	regAt := func(i int) *obs.Registry {
		if topo.Registries == nil {
			return nil
		}
		return topo.Registries[i]
	}

	fixers := make([]*core.OnlineFixer, len(ixs))
	for i, ix := range ixs {
		var wal core.WAL
		if len(stores) > 0 {
			wal = stores[i]
			if !a.fix.oplog {
				wal = snapshotOnly{stores[i]}
			}
			if r := regAt(i); r != nil {
				stores[i].RegisterMetrics(r)
			}
		}
		fixers[i] = core.NewOnlineFixer(ix, core.OnlineConfig{
			BatchSize: a.fix.batch, SampleEvery: a.fix.sample,
			WAL:                  wal,
			SnapshotEveryBatches: a.fix.snapEvery, SnapshotEveryMutations: a.fix.snapOps,
			Metrics: regAt(i),
		})
	}
	if a.pq.on {
		if err := wirePQ(fixers, stores, a.pq, preferSidecar); err != nil {
			return server.Topology{}, err
		}
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		return server.Topology{}, fmt.Errorf("assemble shard group: %w", err)
	}
	topo.Group = g

	if a.repair.Interval > 0 {
		ctls := make([]*repair.Controller, len(fixers))
		for i, f := range fixers {
			ctls[i] = repair.New(i, f, a.adm, a.repair)
			if r := regAt(i); r != nil {
				ctls[i].RegisterMetrics(r)
			}
		}
		topo.Repair = repair.NewFleet(ctls...)
	}

	if a.replicas.selfReplica {
		srcs := make([]replica.Source, len(stores))
		for i, st := range stores {
			srcs[i] = replica.StoreSource{St: st}
		}
		if topo.Replicas, err = a.replicaSet(srcs, topo.Registries); err != nil {
			return server.Topology{}, err
		}
		rr := make([]shard.ReadReplica, len(stores))
		for i := range rr {
			rr[i] = topo.Replicas.Replica(i)
		}
		pol := shard.FailoverPolicy{
			After: a.replicas.failoverAfter,
			// A shard whose durability already failed is known-bad: route
			// its reads to the replica immediately, no hedge delay.
			Unhealthy: func(sh int) bool { return g.Fixer(sh).Degraded() },
		}
		if err := g.SetReplicas(rr, pol); err != nil {
			return server.Topology{}, fmt.Errorf("attach replicas: %w", err)
		}
		log.Printf("self-replica enabled: %d per-shard read replicas, failover after %s, lag max %d bytes",
			len(rr), a.replicas.failoverAfter, a.replicas.lagMax)
	}
	return topo, nil
}

// shardRegistries returns one shard="<i>" metric registry per shard (at
// every shard count, so dashboards need one query shape), or nil with
// -metrics=false.
func (a *assembler) shardRegistries(n int) []*obs.Registry {
	if a.reg == nil {
		return nil
	}
	regs := make([]*obs.Registry, n)
	for i := range regs {
		regs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
	}
	return regs
}

// replicaSet builds one read replica per shard source — -self-replica's
// in-process standbys and -replica-of's followers alike — registering
// each on its shard's registry (regs is nil with -metrics=false).
func (a *assembler) replicaSet(srcs []replica.Source, regs []*obs.Registry) (*replica.Set, error) {
	reps := make([]*replica.Replica, len(srcs))
	for i, src := range srcs {
		reps[i] = replica.New(src, replica.Config{
			Shard: i, Opts: a.opts, LagMax: a.replicas.lagMax, Poll: a.replicas.poll,
			Logf: log.Printf,
		})
		if regs != nil {
			reps[i].RegisterMetrics(regs[i])
		}
	}
	set, err := replica.NewSet(reps)
	if err != nil {
		return nil, fmt.Errorf("assemble replica set: %w", err)
	}
	return set, nil
}

// leaderSource is the flag-derived location of a leader's index: its
// snapshot dir, and the prebuilt index or base vectors to start from.
type leaderSource struct {
	snapDir             string
	shards              int
	shardsFlagSet       bool
	indexPath, basePath string
	metric              string
	m, efc              int
}

// lead opens a leader's topology. A sharded snapshot dir pins its shard
// count and epoch via the manifest (routing is a function of the count,
// and a committed reshard moves the tree under epoch-<e>/); a legacy dir
// is one shard; a fresh dir takes the flag. Any crashed reshard is
// resolved first — to exactly the old or the new topology. Each shard
// then recovers from the snapshot dir when it has state; otherwise the
// index is built or loaded, partitioned row-interleaved (global id =
// original row index), and seeded into the dir. Startup state is sealed
// into a fresh generation per shard before the topology is returned.
func (a *assembler) lead(src leaderSource) (server.Topology, persist.Layout, error) {
	n := src.shards
	var layout persist.Layout
	var stores []*persist.Store
	if src.snapDir != "" {
		var err error
		if layout, err = persist.ResolveLayout(nil, src.snapDir, src.shards, src.shardsFlagSet); err != nil {
			return server.Topology{}, layout, err
		}
		n = layout.Shards
		if stores, err = persist.OpenShardedAt(src.snapDir, n, layout.Epoch, persist.Options{}); err != nil {
			return server.Topology{}, layout, fmt.Errorf("open snapshot dir: %w", err)
		}
	} else if n < 1 {
		return server.Topology{}, layout, fmt.Errorf("-shards must be at least 1, got %d", n)
	}
	if a.replicas.selfReplica && len(stores) == 0 {
		return server.Topology{}, layout, errors.New("-self-replica needs -snapshot-dir (replicas tail the store's op log)")
	}

	var ixs []*core.Index
	recovered := len(stores) > 0 && stores[0].HasState()
	switch {
	case recovered:
		var replayed []int
		var err error
		if ixs, replayed, err = shard.Recover(stores, a.opts); err != nil {
			return server.Topology{}, layout, fmt.Errorf("recover: %w", err)
		}
		for i, ix := range ixs {
			log.Printf("recovered shard %d/%d from %s: generation %d, %d vectors (%d live), %d ops replayed",
				i, n, stores[i].Dir(), stores[i].Generation(), ix.G.Len(), ix.G.Live(), replayed[i])
		}
	case src.indexPath != "":
		g, err := graph.Load(src.indexPath)
		if err != nil {
			return server.Topology{}, layout, fmt.Errorf("load index: %w", err)
		}
		if err := vec.CheckRows(g.Vectors); err != nil {
			return server.Topology{}, layout, fmt.Errorf("index %s: %w", src.indexPath, err)
		}
		log.Printf("loaded index: %d vectors, dim %d, metric %s", g.Len(), g.Dim(), g.Metric)
		if n == 1 {
			// Unsharded: serve the prebuilt graph exactly as loaded.
			ixs = []*core.Index{core.New(g, a.opts)}
		} else {
			// A monolithic index cannot be split edge-for-edge; partition
			// its vectors and rebuild each shard's base graph.
			log.Printf("resharding prebuilt index into %d shards (per-shard base graphs rebuilt with -m/-efc)", n)
			ixs = buildShards(g.Vectors, n, hnsw.Config{M: src.m, EFConstruction: src.efc, Metric: g.Metric}, a.opts)
		}
	case src.basePath != "":
		base, err := dataset.LoadMatrix(src.basePath)
		if err != nil {
			return server.Topology{}, layout, fmt.Errorf("load base: %w", err)
		}
		if err := vec.CheckRows(base); err != nil {
			return server.Topology{}, layout, fmt.Errorf("base %s: %w", src.basePath, err)
		}
		metric, err := parseMetric(src.metric)
		if err != nil {
			return server.Topology{}, layout, err
		}
		start := time.Now()
		ixs = buildShards(base, n, hnsw.Config{M: src.m, EFConstruction: src.efc, Metric: metric}, a.opts)
		log.Printf("built HNSW base over %d vectors in %d shard(s) in %s", base.Rows(), n, time.Since(start).Round(time.Millisecond))
	default:
		return server.Topology{}, layout, errors.New("one of -index, -base, -replica-of, or a non-empty -snapshot-dir is required")
	}
	if len(stores) > 0 && !a.fix.oplog {
		log.Print("op log disabled (-oplog=false): mutations between snapshots will not survive a crash")
	}

	// Compressed serving prefers the recovered sidecar: attach re-encodes
	// only the WAL-replayed tail against the frozen codebooks, so codes
	// stay bit-identical across the crash.
	topo, err := a.assemble(stores, ixs, recovered)
	if err != nil {
		return server.Topology{}, layout, err
	}
	// Seal startup state into a fresh generation per shard: recovery
	// never appends to a log that might end in a torn record, and a fresh
	// dir gets its first durable snapshot before serving a single
	// request. Sealing after PQ enable means the first generation already
	// carries the quantizer sidecar.
	if len(stores) > 0 {
		if err := topo.Group.Snapshot(); err != nil {
			return server.Topology{}, layout, fmt.Errorf("initial snapshot: %w", err)
		}
	}
	log.Printf("leading %d shard(s): fix batch %d, repair interval %s, snapshots %v",
		n, a.fix.batch, a.repair.Interval, len(stores) > 0)
	return topo, layout, nil
}

// follow assembles a -replica-of topology: one read replica per leader
// shard, bootstrapped from the leader's snapshots and tailing its op
// logs, either over HTTP (target is a URL) or straight from the leader's
// snapshot directory. Searches answer "stale": true; /readyz holds 503
// until every shard replica is bootstrapped and within -replica-lag-max.
func (a *assembler) follow(target string, shards int, shardsFlagSet bool) (server.Topology, error) {
	n, epoch := shards, 0
	overHTTP := strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://")
	if !overHTTP {
		// A leader directory pins its shard count and epoch via the
		// manifest. Peek, don't resolve: the leader owns that tree, and a
		// read-only follower must never GC a reshard in flight there.
		l, err := persist.PeekLayout(nil, target, shards, shardsFlagSet)
		if err != nil {
			return server.Topology{}, err
		}
		n, epoch = l.Shards, l.Epoch
	}
	if n < 1 {
		return server.Topology{}, fmt.Errorf("-shards must be at least 1, got %d", n)
	}
	srcs := make([]replica.Source, n)
	for i := range srcs {
		switch {
		case overHTTP:
			srcs[i] = replica.HTTPSource{Base: strings.TrimRight(target, "/"), Shard: i}
		case n == 1 && epoch == 0:
			srcs[i] = replica.DirSource{Dir: target}
		default:
			srcs[i] = replica.DirSource{Dir: persist.ShardDirAt(target, epoch, i)}
		}
	}
	topo := server.Topology{Registries: a.shardRegistries(n)}
	var err error
	if topo.Replicas, err = a.replicaSet(srcs, topo.Registries); err != nil {
		return server.Topology{}, err
	}
	log.Printf("following %s (%d shard replica(s), epoch %d, lag max %d bytes)", target, n, epoch, a.replicas.lagMax)
	return topo, nil
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

// maintenance starts and stops the repair fleet of the topology serving
// at the time, so a reshard can quiesce repair for the cutover window
// and restart it on the post-split fleet.
type maintenance struct {
	s    *server.Server
	base context.Context

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// start runs the current topology's repair fleet; a no-op when it has
// none or it is already running.
func (m *maintenance) start() {
	fleet := m.s.Topology().Repair
	if fleet == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(m.base)
	done := make(chan struct{})
	go func() {
		defer close(done)
		fleet.Run(ctx, log.Printf)
	}()
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
		Opts:    m.asm.opts,
		Group:   m.s.Topology().Group,
		Acquire: m.acquire,
		Quiesce: func() func() {
			m.maint.stop()
			return m.maint.start
		},
		Assemble: func(stores []*persist.Store, ixs []*core.Index) (func(), error) {
			topo, err := m.asm.assemble(stores, ixs, true)
			if err != nil {
				return nil, err
			}
			return func() { m.s.Install(topo) }, nil
		},
		Logf: log.Printf,
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
	m.stores = m.s.Topology().Stores // the install swapped in the children
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

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/vec"
)

// metric is one reported number. Samples is how many measurements the
// value summarises (beside each percentile: the per-window count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one workload's outcome: every metric by name plus the
// output checks. Metrics holds end-to-end and per-layer names alike.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	AckedLost int               `json:"acked_lost"`
	Problems  []string          `json:"problems,omitempty"` // failed output checks
	Correct   bool              `json:"correct"`
	WallS     float64           `json:"wall_s"`
}

func (r *runResult) set(name string, v float64, samples int) {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the tables of config.go")
	}
	r.Metrics[name] = metric{Value: finite(v), Unit: d.Unit, Samples: samples}
}

func (r *runResult) problem(format string, args ...interface{}) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	wl        workload
	sz        sizes
	seed      int64
	conns     int
	setups    int           // whole set-ups performed; the last one is measured
	warm      time.Duration // unmeasured traffic after set-up
	closedDur time.Duration
	openDur   time.Duration
	serverBin string
	workDir   string // scratch for corpus files and snapshot dirs; removed afterwards
	outDir    string
}

type ackedInsert struct {
	id  uint32
	row int // row of the insert pool
}

// connState is one connection's share of the reply bookkeeping, so the
// timed phases take no lock.
type connState struct {
	replies  int
	shed     int
	clamped  int
	acked    []ackedInsert
	problems []string
}

type httpRun struct {
	cfg   runConfig
	res   *runResult
	in    *inputs
	proc  *serverProc
	src   *source
	conns []connState
}

// setUp performs one whole set-up — generate, write the corpus, start
// the server, replay the history on one connection, fix until nothing is
// pending — and reports how long it took.
func (h *httpRun) setUp(dir string) (time.Duration, error) {
	start := time.Now()
	h.in = makeInputs(h.cfg.sz, h.cfg.seed, h.cfg.wl)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	base := filepath.Join(dir, "base.ngfx")
	if err := dataset.SaveMatrix(base, h.in.ds.Base); err != nil {
		return 0, fmt.Errorf("write corpus: %w", err)
	}
	addr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	h.proc, err = startServer(h.cfg.serverBin, addr, h.cfg.wl.serverArgs(base, dir, addr), 120*time.Second)
	if err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	for i, body := range h.in.hist {
		status, reply, err := post(client, h.proc.url+"/v1/search", body)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("history query %d: status %d, %v", i, status, err)
		}
		if _, err := validateSearch(reply, 10, uint32(h.cfg.sz.N)); err != nil {
			return 0, fmt.Errorf("history query %d: %w", i, err)
		}
	}
	for round := 0; ; round++ {
		status, reply, err := post(client, h.proc.url+"/v1/fix", nil)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("POST /v1/fix: status %d, %v: %s", status, err, reply)
		}
		var stats struct {
			PendingFix int `json:"pendingFix"`
		}
		if err := getJSON(client, h.proc.url+"/v1/stats", &stats); err != nil {
			return 0, err
		}
		if stats.PendingFix == 0 {
			break
		}
		if round == 10 {
			return 0, fmt.Errorf("pendingFix still %d after %d fix batches", stats.PendingFix, round+1)
		}
	}
	return time.Since(start), nil
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func getJSON(c *http.Client, url string, dst interface{}) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

type searchReply struct {
	Results []struct {
		ID   uint32  `json:"id"`
		Dist float32 `json:"dist"`
	} `json:"results"`
	Truncated bool `json:"truncated"`
}

// validateSearch is the output check of a 200 search reply: exactly k
// hits, distances non-decreasing, ids below limit, not truncated.
func validateSearch(body []byte, k int, limit uint32) (searchReply, error) {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("malformed search reply: %w", err)
	}
	if r.Truncated {
		return r, fmt.Errorf("truncated search reply")
	}
	if len(r.Results) != k {
		return r, fmt.Errorf("search reply has %d hits, want %d", len(r.Results), k)
	}
	for i, hit := range r.Results {
		if hit.ID >= limit {
			return r, fmt.Errorf("hit %d has id %d outside the corpus of %d", i, hit.ID, limit)
		}
		if i > 0 && hit.Dist < r.Results[i-1].Dist {
			return r, fmt.Errorf("distances decrease at hit %d (%g after %g)", i, hit.Dist, r.Results[i-1].Dist)
		}
	}
	return r, nil
}

// corpusLimit bounds a valid hit id right now: the base rows plus every
// insert issued so far, acknowledged or not.
func (h *httpRun) corpusLimit() uint32 {
	return uint32(h.cfg.sz.N) + uint32(h.src.insertsIssued.Load())
}

var (
	truncatedMark = []byte(`"truncated":true`)
	clampedMark   = []byte(`"clamped":true`)
)

// check is the load generator's reply judge. Timed phases status-check
// every reply, look for the truncated/clamped flags, and fully validate
// one search reply in 64 — after the latency was taken.
func (h *httpRun) check(conn int, req request, status int, body []byte) bool {
	cs := &h.conns[conn]
	cs.replies++
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			cs.shed++
		}
		return true
	}
	if req.kind == opInsert {
		var r struct {
			ID *uint32 `json:"id"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.ID == nil {
			cs.problems = append(cs.problems, fmt.Sprintf("malformed insert reply %q", body))
			return true
		}
		cs.acked = append(cs.acked, ackedInsert{id: *r.ID, row: req.idx})
		return false
	}
	if bytes.Contains(body, truncatedMark) {
		return true
	}
	if bytes.Contains(body, clampedMark) {
		cs.clamped++
	}
	if cs.replies%64 == 0 {
		if _, err := validateSearch(body, h.cfg.wl.K, h.corpusLimit()); err != nil {
			cs.problems = append(cs.problems, err.Error())
			return true
		}
	}
	return false
}

// runHTTP measures one workload against the real binary: set-up (setups
// times), warm traffic, closed loop, open loop, recall probe and, with
// inserts, the crash check. It fills both end-to-end metrics and the
// per-layer metrics that can only be scraped from a live server.
func runHTTP(cfg runConfig) (res *runResult, err error) {
	res = &runResult{Workload: cfg.wl.Name, Seed: cfg.seed, Metrics: map[string]metric{}}
	h := &httpRun{cfg: cfg, res: res}
	os.Remove(serverLogPath(cfg.outDir, cfg.wl.Name)) // saveServerLog appends: start this run's log empty
	defer func() {
		if h.proc != nil {
			saveServerLog(cfg.outDir, cfg.wl.Name, h.proc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "---- server stderr (%s) ----\n%s----\n", cfg.wl.Name, h.proc.stderr.String())
			}
			h.proc.kill()
		}
	}()

	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.workDir, "setup-"+strconv.Itoa(i))
		d, err := h.setUp(dir)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, d.Seconds())
		if i < cfg.setups-1 {
			h.proc.kill()
			h.proc = nil
			os.RemoveAll(dir)
		}
	}
	res.set("setup_s", median(setupS), len(setupS))

	h.src = newSource(h.in, cfg.conns)
	h.conns = make([]connState, cfg.conns)
	lg := newLoadgen(h.proc.url, cfg.conns, h.src, h.check)
	defer lg.close()
	lg.closed(cfg.warm)
	for i := range h.conns { // warm traffic is not judged, but its inserts are in the corpus
		h.conns[i] = connState{acked: h.conns[i].acked}
	}

	before, err := h.proc.scrape()
	if err != nil {
		return res, err
	}
	cpu0, timed0 := selfCPU(), time.Now()
	closed := lg.closed(cfg.closedDur)
	open := lg.open(cfg.openDur, cfg.wl.OpenRateQPS)
	cpu1, timedWall := selfCPU(), time.Since(timed0)
	after, err := h.proc.scrape()
	if err != nil {
		return res, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	closedSearch := summarize(closed, opSearch, cfg.closedDur)
	openSearch := summarize(open, opSearch, cfg.openDur)
	closedInsert := summarize(closed, opInsert, cfg.closedDur)
	openInsert := summarize(open, opInsert, cfg.openDur)
	res.Attempted = closedSearch.attempted + openSearch.attempted + closedInsert.attempted + openInsert.attempted
	res.Failed = closedSearch.failed + openSearch.failed + closedInsert.failed + openInsert.failed
	res.set("search_qps", closedSearch.qps, closedSearch.ok)
	res.set("search_p50_ms", closedSearch.p50, closedSearch.perWindow)
	res.set("search_p99_ms", closedSearch.p99, closedSearch.perWindow)
	res.set("search_p999_ms", closedSearch.p999, closedSearch.ok)
	res.set("open_p50_ms", openSearch.p50, openSearch.perWindow)
	res.set("open_p99_ms", openSearch.p99, openSearch.perWindow)
	res.set("insert_p50_ms", closedInsert.p50, closedInsert.perWindow)
	res.set("insert_p99_ms", closedInsert.p99, closedInsert.perWindow)
	res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Attempted)

	missed, late := 0, 0
	for _, s := range open {
		if s.kind == opSearch && (s.fail || s.lat > time.Duration(sloMS*float64(time.Millisecond))) {
			missed++
		}
		if s.late > time.Millisecond {
			late++
		}
	}
	res.set("open_slo_miss_ratio", float64(missed)/float64(openSearch.attempted), openSearch.attempted)
	res.set("client.late_ratio", float64(late)/float64(len(open)), len(open))
	res.set("client.cpu_share", (cpu1-cpu0).Seconds()/timedWall.Seconds(), 0)

	var shed, clamped int
	for i := range h.conns {
		shed += h.conns[i].shed
		clamped += h.conns[i].clamped
		for _, p := range h.conns[i].problems {
			res.problem("%s", p)
		}
	}
	searches := closedSearch.attempted + openSearch.attempted
	res.set("admission.shed_ratio", float64(shed)/float64(res.Attempted), res.Attempted)
	res.set("admission.clamped_ratio", float64(clamped)/float64(searches), searches)
	// Every shard records every search it executes, so the shed count is
	// per shard-search.
	shardSearches := float64(searches * cfg.wl.Shards)
	res.set("core.recorded_shed_ratio", delta("ngfix_recorded_queries_shed_total")/shardSearches, int(shardSearches))
	res.set("persist.snapshots", delta("ngfix_wal_snapshot_seconds_count"), 0)
	res.set("repair.batches", delta("ngfix_repair_batches_total"), 0)
	res.set("repair.deferred", delta("ngfix_repair_deferred_total"), 0)
	res.set("repair.fix_busy_ratio", delta("ngfix_fix_batch_duration_seconds_sum")/timedWall.Seconds(), int(delta("ngfix_fix_batch_duration_seconds_count")))

	rss, err := h.proc.rssPeakMB()
	if err != nil {
		return res, err
	}
	res.set("rss_peak_mb", rss, 0)

	if err := h.probe(); err != nil {
		return res, err
	}
	if cfg.wl.InsertEvery > 0 {
		if err := h.crashCheck(); err != nil {
			return res, err
		}
	} else {
		res.set("persist.recovery_s", 0, 0)
		res.set("persist.replayed_ops", 0, 0)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// selfCPU is the load generator's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// acked gathers every acknowledged insert of the run.
func (h *httpRun) acked() []ackedInsert {
	var all []ackedInsert
	for i := range h.conns {
		all = append(all, h.conns[i].acked...)
	}
	return all
}

// probe sends the held-out queries one at a time, validates every reply
// in full, and scores recall@k against exact truth over the corpus as
// acknowledged at this moment: the base rows plus every acked insert at
// its acked id.
func (h *httpRun) probe() error {
	cfg, in := h.cfg, h.in
	k := cfg.wl.K
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	replies := make([]searchReply, len(in.probe))
	for i, body := range in.probe {
		status, reply, err := post(client, h.proc.url+"/v1/search", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("probe query %d: status %d, %v", i, status, err)
		}
		r, err := validateSearch(reply, k, h.corpusLimit())
		if err != nil {
			h.res.problem("probe query %d: %v", i, err)
		}
		replies[i] = r
	}

	corpus, skip := h.ackedCorpus()
	var hits, want int
	for i := range in.probe {
		truth := bruteforce.KNN(corpus, vec.Cosine, in.probeVector(i), k, skip)
		want += len(truth)
		if len(truth) == 0 {
			continue
		}
		// A hit counts by id, or by distance when it ties the k-th true
		// neighbour (re-inserted pool vectors are exact duplicates).
		ids := make(map[uint32]bool, len(truth))
		for _, t := range truth {
			ids[t.ID] = true
		}
		kth := truth[len(truth)-1].Dist
		for _, hit := range replies[i].Results {
			if ids[hit.ID] || hit.Dist <= kth {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(want)
	h.res.set("recall_at_10", recall, len(in.probe))
	if recall < cfg.wl.RecallFloor && cfg.sz == fullSizes {
		h.res.problem("recall_at_10 %.4f is below the floor %.2f of %s", recall, cfg.wl.RecallFloor, cfg.wl.Name)
	}
	return nil
}

// ackedCorpus is the corpus as acknowledged: base rows, then acked
// inserts placed at their acked ids. skip is non-nil only if some id in
// the range was never acknowledged.
func (h *httpRun) ackedCorpus() (*vec.Matrix, func(uint32) bool) {
	base := h.in.ds.Base
	acked := h.acked()
	if len(acked) == 0 {
		return base, nil
	}
	rows := base.Rows()
	for _, a := range acked {
		if int(a.id) >= rows {
			rows = int(a.id) + 1
		}
	}
	m := vec.NewMatrix(rows, base.Dim())
	copy(m.Data(), base.Data())
	have := make([]bool, rows)
	for i := 0; i < base.Rows(); i++ {
		have[i] = true
	}
	holes := rows - base.Rows()
	for _, a := range acked {
		if int(a.id) < base.Rows() || have[a.id] {
			h.res.problem("insert acknowledged with id %d, which was already taken", a.id)
			continue
		}
		copy(m.Row(int(a.id)), h.in.ds.TestID.Row(a.row))
		have[a.id] = true
		holes--
	}
	if holes == 0 {
		return m, nil
	}
	return m, func(id uint32) bool { return !have[id] }
}

var replayedRE = regexp.MustCompile(`(\d+) ops replayed`)

// crashCheck looks a seeded sample of acked inserts up by their own
// vector, SIGKILLs the server, restarts it on the same directory and
// looks them up again. SIGKILL keeps the OS page cache, so this checks
// the WAL and recovery logic, not the device.
func (h *httpRun) crashCheck() error {
	acked := h.acked()
	rng := rand.New(rand.NewSource(h.cfg.seed))
	rng.Shuffle(len(acked), func(i, j int) { acked[i], acked[j] = acked[j], acked[i] })
	if len(acked) > durabilitySample {
		acked = acked[:durabilitySample]
	}
	if len(acked) == 0 {
		h.res.problem("no insert was acknowledged, nothing to check after the crash")
	}
	lookup := func(url, when string) (int, error) {
		client := &http.Client{Timeout: 30 * time.Second}
		defer client.CloseIdleConnections()
		missing := 0
		for _, a := range acked {
			body := searchBody(h.in.ds.TestID.Row(a.row), 1, 256)
			status, reply, err := post(client, url+"/v1/search", body)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("lookup of acked id %d %s: status %d, %v", a.id, when, status, err)
			}
			var r searchReply
			if err := json.Unmarshal(reply, &r); err != nil {
				return 0, fmt.Errorf("lookup of acked id %d %s: %w", a.id, when, err)
			}
			// Rank 1 by id, or by a zero distance when the pool vector
			// was inserted more than once.
			if len(r.Results) != 1 || (r.Results[0].ID != a.id && r.Results[0].Dist > 1e-6) {
				missing++
			}
		}
		return missing, nil
	}
	before, err := lookup(h.proc.url, "before the crash")
	if err != nil {
		return err
	}
	if before > 0 {
		h.res.problem("%d of %d acked inserts not found at rank 1 before the crash", before, len(acked))
	}

	saveServerLog(h.cfg.outDir, h.cfg.wl.Name, h.proc)
	h.proc.kill()
	dir := filepath.Join(h.cfg.workDir, "setup-"+strconv.Itoa(h.cfg.setups-1))
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	start := time.Now()
	h.proc, err = startServer(h.cfg.serverBin, addr, h.cfg.wl.serverArgs(filepath.Join(dir, "base.ngfx"), dir, addr), 120*time.Second)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	h.res.set("persist.recovery_s", time.Since(start).Seconds(), 0)
	replayed := 0
	for _, m := range replayedRE.FindAllStringSubmatch(h.proc.stderr.String(), -1) {
		n, _ := strconv.Atoi(m[1]) // the pattern only matches digits
		replayed += n
	}
	h.res.set("persist.replayed_ops", float64(replayed), 0)

	h.res.AckedLost, err = lookup(h.proc.url, "after the restart")
	if err != nil {
		return err
	}
	if h.res.AckedLost > 0 {
		h.res.problem("acked_lost = %d of %d sampled inserts after SIGKILL and restart", h.res.AckedLost, len(acked))
	}
	return nil
}

func serverLogPath(outDir, workload string) string {
	return filepath.Join(outDir, "server-"+workload+".log")
}

// saveServerLog appends p's stderr so far to the workload's log file.
func saveServerLog(outDir, workload string, p *serverProc) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return // the log is a convenience; the run's own error reporting does not depend on it
	}
	f, err := os.OpenFile(serverLogPath(outDir, workload), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "==== pid %d ====\n%s", p.cmd.Process.Pid, p.stderr.String())
}

// Command benchmark is the serving benchmark of this repository: it
// builds cmd/ngfix-server, drives it over loopback HTTP with four
// workloads, checks the replies, and prints every metric by name. With
// -trace 1 it also assembles the same stack in-process and times each
// layer from the outside in. See README.md.
//
//	go run -C benchmark . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N]
//	go run -C benchmark . compare PARENT.json... -- CHANGE.json...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"ngfix/internal/vec"
)

// watchdog bounds one workload's run; past it every server is killed and
// the process exits non-zero.
const watchdog = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			os.Stdout.Write(manifestJSON())
			return
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// benchMain runs the selected workloads; everything a user or the
// driver reads goes to stdout, diagnostics to standard error. Exit code
// 2 is a usage or environment problem, 1 a failed run or output check.
func benchMain(args []string, stdout io.Writer) int {
	code, err := bench(args, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	return code
}

func bench(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fl.String("workload", "", "workload to run (default: all four)")
	seed := fl.Int64("seed", 1, "workload seed: offsets the data recipe, the operation schedule and the insert vectors")
	seconds := fl.Float64("seconds", runSeconds, "measured seconds per run: half closed loop, half open loop")
	trace := fl.Int("trace", 0, "1 also runs the in-process traced replay and reports the per-layer metrics")
	repeat := fl.Int("repeat", 1, "run the whole set this many times, each into its own numbered result file")
	smoke := fl.Bool("smoke", false, "tiny sizes (2 000 x 32) for a quick end-to-end check; numbers mean nothing")
	buildDir := fl.String("build-dir", "", "directory for the server binary and scratch data (default: a fresh temp dir, removed on exit)")
	outDir := fl.String("out", "", "directory for results, traces and server logs (default: <repo>/benchmark/out)")
	fl.Parse(args)

	root, err := repoRoot()
	if err != nil {
		return 2, err
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "benchmark", "out")
	}
	selected := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{wl}
	}
	if *seconds <= 0 || *repeat < 1 {
		return 2, errors.New("-seconds and -repeat must be positive")
	}

	scratch := *buildDir
	if scratch == "" {
		if scratch, err = os.MkdirTemp("", "ngfix-benchmark-"); err != nil {
			return 2, err
		}
		defer os.RemoveAll(scratch)
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 2, err
	}
	if scratch, err = filepath.Abs(scratch); err != nil {
		return 2, err
	}
	workRoot := filepath.Join(scratch, "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(workRoot)
	// fatalCleanup is what every abnormal exit path runs first.
	fatalCleanup := func() {
		killAllServers()
		os.RemoveAll(workRoot)
		if *buildDir == "" {
			os.RemoveAll(scratch)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fatalCleanup()
			panic(r)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "benchmark: interrupted, killing servers")
			fatalCleanup()
			os.Exit(130)
		case <-done:
		}
	}()

	bin, err := buildServer(root, scratch)
	if err != nil {
		return 2, err
	}

	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	conns := runtime.NumCPU()
	if conns > 4 {
		conns = 4
	}
	meta := runMeta(sz, conns, *seed, *seconds)
	code := 0
	var last *runResult
	for rep := 1; rep <= *repeat; rep++ {
		doc := resultDoc{Meta: meta}
		for _, wl := range selected {
			cfg := runConfig{
				wl: wl, sz: sz, seed: *seed, conns: conns, serverBin: bin, outDir: *outDir,
				workDir: filepath.Join(workRoot, wl.Name),
				setups:  setupRepeats,
				warm:    time.Duration(*seconds / 10 * float64(time.Second)),
			}
			phase := time.Duration(*seconds / 2 * float64(time.Second))
			if *trace == 1 {
				// The traced replay is the point of this mode; the run
				// against the binary is only there for the scraped counts
				// and the base of server.http_overhead_us.
				cfg.setups, phase = 1, phase/2
			}
			cfg.closedDur, cfg.openDur = phase, phase
			res, err := runWorkload(cfg, *trace == 1, fatalCleanup)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", wl.Name, err)
			}
			printResult(stdout, res)
			doc.Runs = append(doc.Runs, res)
			if !res.Correct {
				code = 1
			}
			last = res
		}
		path := resultPath(*outDir, *name, *seed, *trace == 1, rep, *repeat)
		if err := writeResult(path, doc); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if *name != "" {
		// The driver's contract: the last line is this workload's result.
		stdout.Write(contractLine(last, *trace == 1))
	} else {
		fmt.Fprintf(stdout, `{"runs": %d, "claim": null}`+"\n", len(selected)**repeat)
	}
	return code, nil
}

// runWorkload is one workload under the watchdog: the run against the
// real binary and, when traced, the in-process replay after it. When the
// watchdog fires it prints every live server's stderr, runs fatalCleanup
// and exits.
func runWorkload(cfg runConfig, traced bool, fatalCleanup func()) (*runResult, error) {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: watchdog fired after %s\n", cfg.wl.Name, watchdog)
		live.mu.Lock()
		for p := range live.procs {
			fmt.Fprintf(os.Stderr, "---- server stderr ----\n%s----\n", p.stderr.String())
		}
		live.mu.Unlock()
		fatalCleanup()
		os.Exit(3)
	})
	defer timer.Stop()
	defer os.RemoveAll(cfg.workDir)
	start := time.Now()
	res, err := runHTTP(cfg)
	if err != nil {
		return nil, err
	}
	if traced {
		res.Trace = true
		if err := runTrace(cfg, res); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// resultDoc is one result file: the settings, then one entry per
// workload run. claim is always null: this benchmark measures, it does
// not claim.
type resultDoc struct {
	Meta  map[string]interface{} `json:"meta"`
	Runs  []*runResult           `json:"runs"`
	Claim *string                `json:"claim"`
}

func runMeta(sz sizes, conns int, seed int64, seconds float64) map[string]interface{} {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	rates := map[string]float64{}
	for _, wl := range workloads {
		rates[wl.Name] = wl.OpenRateQPS
	}
	return map[string]interface{}{
		"seed": seed, "seconds": seconds, "git_commit": commit,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"kernel": vec.KernelName(), "n": sz.N, "dim": sz.Dim, "history": sz.Hist, "probes": sz.Probe,
		"connections": conns, "slo_ms": sloMS, "open_rate_qps": rates,
		"setup_repeats": setupRepeats, "phase_windows": phaseWindows,
	}
}

func resultPath(outDir, workload string, seed int64, traced bool, rep, repeat int) string {
	name := "result"
	if traced {
		name += "-trace"
	}
	if workload == "" {
		workload = "all"
	}
	name += "-" + workload + "-seed" + strconv.FormatInt(seed, 10)
	if repeat > 1 {
		name += fmt.Sprintf(".%03d", rep)
	}
	return filepath.Join(outDir, name+".json")
}

func writeResult(path string, doc resultDoc) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult lists every metric of the run by name with its unit, the
// sample count beside it where there is one.
func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "== %s (seed %d, %.1f s wall) ==\n", res.Workload, res.Seed, res.WallS)
	section := func(title string, defs []metricDef) {
		fmt.Fprintln(w, title)
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-30s %14.4f %s", d.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf("  (n=%d)", m.Samples)
			}
			fmt.Fprintln(w, line)
		}
	}
	section(" end to end", endToEnd)
	section(" per layer", perLayer)
	fmt.Fprintf(w, " checks: attempted=%d failed=%d acked_lost=%d correct=%v\n", res.Attempted, res.Failed, res.AckedLost, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  FAILED CHECK:", p)
	}
}

// contractLine is the driver's last line: with tracing off every
// contract end-to-end metric, with tracing on every other metric.
func contractLine(res *runResult, traced bool) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	e2e, layer := contractNames()
	names := e2e
	if traced {
		names = layer
	}
	for _, d := range names {
		m := res.Metrics[d.Name]
		out.Metrics[d.Name] = value{m.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return append(b, '\n')
}

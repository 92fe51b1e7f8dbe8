package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type contractOutput struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runContract runs one workload the way the driver does, at smoke sizes,
// and returns the decoded last line of its standard output.
func runContract(t *testing.T, buildDir, outDir, workload, trace string) contractOutput {
	t.Helper()
	var stdout bytes.Buffer
	code := benchMain([]string{
		"-smoke", "-workload", workload, "-seed", "5", "-seconds", "2", "-trace", trace,
		"-build-dir", buildDir, "-out", outDir,
	}, &stdout)
	if code != 0 {
		t.Fatalf("%s -trace %s: exit code %d\n%s", workload, trace, code, stdout.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var out contractOutput
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("%s -trace %s: last line is not the contract object: %v\n%s", workload, trace, err, lines[len(lines)-1])
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || out.Metrics == nil {
		t.Fatalf("%s -trace %s: last line lacks one of correct, attempted, failed, metrics", workload, trace)
	}
	if !*out.Correct || *out.Attempted < 1 || *out.Failed != 0 {
		t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", workload, trace, *out.Correct, *out.Attempted, *out.Failed)
	}
	return out
}

// checkMetrics asserts that out carries exactly the metrics of defs,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, label string, out contractOutput, defs []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", label, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, d.Name, m.Unit, d.Unit)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: metric %s has no finite value", label, d.Name)
		case d.Contract && *m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", label, d.Name)
		}
	}
}

// The contract end to end: every workload, traced, against a real
// spawned ngfix-server at 2 000 x 32, plus one untraced run.
func TestSmokeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ngfix-server")
	}
	buildDir, outDir := t.TempDir(), t.TempDir()
	e2e, layer := contractNames()

	for _, wl := range workloads {
		out := runContract(t, buildDir, outDir, wl.Name, "1")
		checkMetrics(t, wl.Name+" -trace 1", out, layer)

		b, err := os.ReadFile(filepath.Join(outDir, "trace-"+wl.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct{ Spans []span }
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) < traceRequests {
			t.Errorf("%s: %d spans for %d traced requests", wl.Name, len(tr.Spans), traceRequests)
		}
		for i, sp := range tr.Spans {
			if sp.ID != i+1 || sp.End < sp.Start {
				t.Fatalf("%s: span %d malformed: %+v", wl.Name, i, sp)
			}
			if sp.Parent == 0 {
				continue
			}
			if sp.Parent >= sp.ID || tr.Spans[sp.Parent-1].Req != sp.Req {
				t.Fatalf("%s: span %+v does not share its parent's request id", wl.Name, sp)
			}
		}
		nonZero := func(name string) bool { return *out.Metrics[name].Value != 0 }
		if nonZero("pq.table_build_us") != wl.PQ {
			t.Errorf("%s: pq.table_build_us must be non-zero exactly on the PQ workload", wl.Name)
		}
		if nonZero("shard.self_us") != (wl.Shards > 1) {
			t.Errorf("%s: shard.self_us must be non-zero exactly with more than one shard", wl.Name)
		}
	}

	out := runContract(t, buildDir, outDir, "mix-2shard", "0")
	checkMetrics(t, "mix-2shard -trace 0", out, e2e)

	// Nothing outlives the runs: no server process, no scratch directory.
	live.mu.Lock()
	if n := len(live.procs); n != 0 {
		t.Errorf("%d server processes still tracked", n)
	}
	live.mu.Unlock()
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if b, err := os.ReadFile(p); err == nil && bytes.Contains(b, []byte(buildDir)) {
			t.Errorf("process %s still runs from the build directory: %q", p, b)
		}
	}
	entries, err := os.ReadDir(buildDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "ngfix-server" {
			t.Errorf("%s left behind in the build directory", e.Name())
		}
	}
}

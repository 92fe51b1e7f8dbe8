package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ngfix/internal/dataset"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// TestBenchmarkFlagsAccepted pins the serving benchmark's contract with
// this binary: every workload's command line (serverArgs in
// benchmark/config.go, copied here minus -addr because the benchmark is
// its own module) must start a server that turns ready and exits
// cleanly on SIGTERM. A flag the benchmark passes may become a no-op; it
// may never become an error.
func TestBenchmarkFlagsAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	// Unit rows at a dimension -pq-m 16 divides: the pq workload serves
	// cosine through the fused path, which refuses non-unit rows.
	d := dataset.Generate(dataset.Config{
		Name: "flags-bench", N: 600, NHist: 10, NTest: 5,
		Dim: 32, Clusters: 6, Metric: vec.Cosine, Normalize: true,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 29,
	})
	base := filepath.Join(work, "base.ngfx")
	if err := dataset.SaveMatrix(base, d.Base); err != nil {
		t.Fatal(err)
	}

	common := []string{"-base", base, "-metric", "cosine", "-m", "16", "-efc", "100", "-lex", "48"}
	workloads := []struct {
		name string
		args []string
	}{
		{"ood-ef64", []string{"-fix-batch", "2000"}},
		{"ood-ef10", []string{"-fix-batch", "2000"}},
		{"pq-ef64", []string{"-fix-batch", "2000", "-snapshot-dir", "state",
			"-pq", "-pq-m", "16", "-pq-ks", "256", "-pq-rerank", "4", "-pq-tier"}},
		{"mix-2shard", []string{"-fix-batch", "32", "-snapshot-dir", "state", "-shards", "2",
			"-snapshot-ops", "512", "-fix-interval", "1s", "-repair-mode", "adaptive"}},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			args := append(append([]string(nil), common...), wl.args...)
			for i, a := range args {
				if a == "state" {
					args[i] = filepath.Join(t.TempDir(), "state")
				}
			}
			startServer(t, bin, args...).terminate(t)
		})
	}
}

// TestRepairModeIntervalRemoved: the fixed-cadence repair loop is gone,
// so asking for it is a startup error that says so, not a silent switch
// to the adaptive controller.
func TestRepairModeIntervalRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildServerBinary(t, t.TempDir())
	out, err := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)),
		"-repair-mode", "interval", "-fix-interval", "1s").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("-repair-mode interval: err %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "interval mode was removed") {
		t.Fatalf("exit message does not say interval mode was removed:\n%s", out)
	}
}

// TestBuildFlagsRejected: a numeric flag outside its documented range is
// a usage error at flag parsing, in ngfix-server and ngfix-build alike:
// one line naming the flag and its range, exit status 2, not a panic
// with a goroutine dump once the build starts, a silent default, nor a
// server that starts with it.
func TestBuildFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	server := buildServerBinary(t, work)
	builder := filepath.Join(work, "ngfix-build")
	if out, err := exec.Command("go", "build", "-o", builder, "../ngfix-build").CombinedOutput(); err != nil {
		t.Fatalf("go build ngfix-build: %v\n%s", err, out)
	}
	d := dataset.Generate(dataset.Config{
		Name: "flags-build", N: 200, NHist: 1, NTest: 1,
		Dim: 8, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 31,
	})
	base := filepath.Join(work, "base.ngfx")
	if err := dataset.SaveMatrix(base, d.Base); err != nil {
		t.Fatal(err)
	}
	const both, serverOnly, buildOnly = 0, 1, 2
	for _, bad := range []struct {
		flag, value, want string
		bins              int
	}{
		{"-m", "1", "must be at least 2", both},
		{"-m", "0", "must be at least 2", both},
		{"-efc", "0", "must be at least 1", both},
		{"-efc", "-3", "must be at least 1", both},
		{"-lex", "-1", "must be at least 1", both},
		{"-fix-batch", "-5", "must be at least 1", serverOnly},
		{"-fix-sample", "-2", "must be at least 1", serverOnly},
		{"-max-inflight", "-1", "must be at least 0", serverOnly},
		{"-queue-depth", "-3", "must be at least 0", serverOnly},
		{"-ef-floor", "-1", "must be at least 0", serverOnly},
		{"-snapshot-ops", "-1", "must be at least 0", serverOnly},
		{"-pq-ks", "0", "must be in 1..256", serverOnly},
		{"-pq-ks", "300", "must be in 1..256", serverOnly},
		{"-pq-rerank", "0", "must be at least 1", serverOnly},
		{"-search-timeout", "-1s", "must be at least 0s", serverOnly},
		{"-k1", "0", "must be at least 1", buildOnly},
		{"-k2", "-1", "must be at least 0", buildOnly},
		{"-prep-ef", "0", "must be at least 1", buildOnly},
	} {
		runs := map[string][]string{}
		if bad.bins != buildOnly {
			runs["ngfix-server"] = []string{server, "-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)), "-base", base, bad.flag, bad.value}
		}
		if bad.bins != serverOnly {
			runs["ngfix-build"] = []string{builder, "-base", base, "-out", filepath.Join(work, "index.ngig"), bad.flag, bad.value}
		}
		for name, argv := range runs {
			// A binary that accepts the flag starts serving; the timeout
			// turns that into a failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			msg := strings.TrimSpace(stderr.String())
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Fatalf("%s %s %s: err %v, want exit status 2; stderr:\n%s", name, bad.flag, bad.value, err, msg)
			}
			if want := name + ": " + bad.flag + " " + bad.value + ": " + bad.want; msg != want {
				t.Fatalf("%s %s %s: want the one line %q, got:\n%s", name, bad.flag, bad.value, want, msg)
			}
		}
	}
}

// TestRemovedPolicyFlagsRefused: the serving policy layer's four flags
// and the snapshot-only durability switch -oplog are gone from the flag
// set, so passing one is a usage error (exit status 2) that names it,
// not a server that starts without it.
func TestRemovedPolicyFlagsRefused(t *testing.T) {
	refuseUndefinedFlags(t, [][]string{
		{"-adaptive-ef"},
		{"-answer-cache-size", "64"},
		{"-augment-rate", "1"},
		{"-augment-sigma", "0.5"},
		{"-oplog=false"},
		{"-self-replica"},
		{"-failover-after=1s"},
	})
}

// TestRemovedRepairFlagsRefused: eager repair's three flags are gone
// from the flag set too.
func TestRemovedRepairFlagsRefused(t *testing.T) {
	refuseUndefinedFlags(t, [][]string{
		{"-repair-theta-hi", "0.5"},
		{"-repair-theta-lo", "0.2"},
		{"-repair-dwell", "3s"},
	})
}

// refuseUndefinedFlags runs the server once per argv and requires exit
// status 2 with Go's "not defined" message naming the flag.
func refuseUndefinedFlags(t *testing.T, argvs [][]string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildServerBinary(t, t.TempDir())
	for _, argv := range argvs {
		name, _, _ := strings.Cut(argv[0], "=")
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t))}, argv...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: err %v, want exit status 2; output:\n%s", name, err, out)
		}
		if want := "flag provided but not defined: " + name; !strings.Contains(string(out), want) {
			t.Fatalf("%s: output does not say %q:\n%s", name, want, out)
		}
	}
}

// TestAdaptiveRepairRunsEveryShard: with -fix-interval the binary runs
// one repair controller per shard, each batch in one of its two modes.
func TestAdaptiveRepairRunsEveryShard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	d := dataset.Generate(dataset.Config{
		Name: "flags-repair", N: 400, NHist: 60, NTest: 10,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 17,
	})
	base := filepath.Join(work, "base.ngfx")
	if err := dataset.SaveMatrix(base, d.Base); err != nil {
		t.Fatal(err)
	}
	p := startServer(t, bin, "-base", base, "-shards", "2", "-fix-batch", "16", "-fix-interval", "20ms")

	get := func(path string) string {
		resp, err := http.Get(p.base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(b)
	}
	for i := 0; i < 40; i++ {
		body, _ := json.Marshal(server.SearchRequest{Vector: d.History.Row(i), K: server.IntPtr(5)})
		resp, err := http.Post(p.base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d", i, resp.StatusCode)
		}
	}
	var st server.StatsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get("/v1/stats")), &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Repair) == 2 && st.Repair[0].BatchesRun > 0 && st.Repair[1].BatchesRun > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair ran no batch on both shards: %+v", st.Repair)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, r := range st.Repair {
		if r.Mode != "steady" && r.Mode != "backoff" {
			t.Fatalf("shard %d repair mode %q, want steady or backoff", r.Shard, r.Mode)
		}
	}
	p.terminate(t)
}

// TestOverflowingBaseRowRefused: a -base row whose distances would
// overflow float32 is a startup error naming the row, before any build.
func TestOverflowingBaseRowRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	d := dataset.Generate(dataset.Config{
		Name: "flags-overflow", N: 200, NHist: 1, NTest: 1,
		Dim: 8, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 37,
	})
	d.Base.Row(57)[3] = 3e38
	base := filepath.Join(work, "base.ngfx")
	if err := dataset.SaveMatrix(base, d.Base); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)), "-base", base).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "row 57:") || strings.Contains(string(out), "built HNSW base") {
		t.Fatalf("want a startup error naming row 57 before any build, got:\n%s", out)
	}
}

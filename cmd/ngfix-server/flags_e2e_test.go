package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ngfix/internal/dataset"
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

// TestBuildFlagsRejected: an -m or -efc the builder cannot use is a usage
// error at flag parsing, in ngfix-server and ngfix-build alike: one line
// naming the flag and exit status 2, not a panic with a goroutine dump
// once the build starts, nor a server that starts with it.
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
	for _, bad := range [][]string{{"-m", "1"}, {"-m", "0"}, {"-efc", "0"}, {"-efc", "-3"}} {
		runs := map[string][]string{
			"ngfix-server": append([]string{server, "-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)), "-base", base}, bad...),
			"ngfix-build":  append([]string{builder, "-base", base, "-out", filepath.Join(work, "index.ngig")}, bad...),
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
				t.Fatalf("%s %v: err %v, want exit status 2; stderr:\n%s", name, bad, err, msg)
			}
			if strings.Contains(msg, "goroutine") || strings.Contains(msg, "\n") ||
				!strings.HasPrefix(msg, name+": "+bad[0]+" "+bad[1]+": must be at least") {
				t.Fatalf("%s %v: want one line naming the flag, got:\n%s", name, bad, msg)
			}
		}
	}
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

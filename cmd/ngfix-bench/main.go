// Command ngfix-bench regenerates the paper's tables and figures on the
// synthetic workloads.
//
// Usage:
//
//	ngfix-bench [-scale S] [-out FILE] all
//	ngfix-bench [-scale S] [-out FILE] fig8 fig12 table1 ...
//	ngfix-bench -list
//	ngfix-bench -perf kernels|search|policy|pq [-json FILE] [-short]
//
// The -perf modes run the performance harness instead of a paper exhibit:
// "kernels" micro-benchmarks the distance kernels on every dispatch arm,
// "search" sweeps beam search end to end, "policy" measures the serving
// policies (adaptive ef + answer cache) against a recall-matched fixed-ef
// baseline on a repeat-heavy workload, "pq" compares memory-tiered
// (PQ-ADC + exact rerank) serving against full precision at matched efs.
// All emit JSON (to -json FILE, or stdout) with fixed-seed inputs;
// `make bench` drives them to produce BENCH_kernels.json,
// BENCH_search.json, BENCH_policy.json, and BENCH_pq.json.
//
// Scale multiplies the default dataset sizes (1.0 ≈ 8k base points); the
// shapes the paper reports hold across scales, larger runs just sharpen
// the QPS separation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ngfix/internal/bench"
	"ngfix/internal/dataset"
	"ngfix/internal/vec"
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default sizes)")
	out := flag.String("out", "", "write results to this file instead of stdout")
	list := flag.Bool("list", false, "list available experiments and exit")
	perf := flag.String("perf", "", "run the perf harness instead: kernels | search")
	jsonOut := flag.String("json", "", "with -perf: write the JSON report to this file")
	short := flag.Bool("short", false, "with -perf: smaller sizes / shorter timing windows (CI)")
	flag.Parse()

	if *perf != "" {
		runPerf(*perf, *jsonOut, *short)
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ngfix-bench [-scale S] [-out FILE] all | <experiment>...")
		fmt.Fprintln(os.Stderr, "run 'ngfix-bench -list' to see experiments")
		os.Exit(2)
	}

	var exps []bench.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range ids {
			e, err := bench.Lookup(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	s := dataset.Scale(*scale)
	fmt.Fprintf(w, "ngfix-bench: scale=%.2f, started %s\n\n", *scale, time.Now().Format(time.RFC3339))
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Description)
		tables := e.Run(s)
		if err := bench.WriteAll(w, tables); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "  done in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// runPerf dispatches the -perf harness modes and writes the JSON report.
func runPerf(mode, jsonPath string, short bool) {
	var report interface{}
	start := time.Now()
	switch mode {
	case "kernels":
		fmt.Fprintf(os.Stderr, "perf: kernel micro-bench (short=%v, best kernel=%s)...\n",
			short, vec.BestKernelName())
		rep := bench.RunKernelBench(short)
		for _, s := range rep.Speedups {
			fmt.Fprintf(os.Stderr, "  %-16s dim=%-4d %.2fx\n", s.Op, s.Dim, s.Speedup)
		}
		for _, s := range rep.SubspaceSpeedups {
			fmt.Fprintf(os.Stderr, "  fused vs per-row sub=%-2d ks=%-3d %-6s %.2fx\n", s.Sub, s.KS, s.Arm, s.Speedup)
		}
		report = rep
	case "search":
		fmt.Fprintf(os.Stderr, "perf: search macro-bench (short=%v, best kernel=%s)...\n",
			short, vec.BestKernelName())
		rep := bench.RunSearchBench(short)
		if rep.QPSSpeedup > 0 {
			fmt.Fprintf(os.Stderr, "  mean QPS speedup: %.2fx\n", rep.QPSSpeedup)
		}
		report = rep
	case "policy":
		fmt.Fprintf(os.Stderr, "perf: serving-policy macro-bench (short=%v)...\n", short)
		rep := bench.RunPolicyBench(short)
		fmt.Fprintf(os.Stderr, "  effective QPS speedup (cache+adaptive vs fixed ef): %.2fx\n",
			rep.EffectiveQPSSpeedup)
		fmt.Fprintf(os.Stderr, "  adaptive NDC ratio at matched recall: %.2f\n", rep.AdaptiveNDCRatio)
		report = rep
	case "pq":
		fmt.Fprintf(os.Stderr, "perf: memory-tiered serving macro-bench (short=%v)...\n", short)
		rep, err := bench.RunPQBench(short)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "  resident vector-memory reduction: %.1fx\n", rep.ResidentReductionX)
		fmt.Fprintf(os.Stderr, "  worst recall@10 loss at matched ef: %.2f pts\n", rep.MaxRecallLossPts)
		report = rep
	default:
		fmt.Fprintf(os.Stderr, "unknown -perf mode %q (have: kernels, search, policy, pq)\n", mode)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "  done in %s\n", time.Since(start).Round(time.Millisecond))

	var w io.Writer = os.Stdout
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := bench.WriteJSON(w, report); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

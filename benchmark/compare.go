package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareMain implements `compare PARENT.json... -- CHANGE.json...`:
// one row per (workload, end-to-end metric) with both medians and
// quartiles, the delta with its base, the bound, and a verdict. Exit
// code 1 on any `worse` or on a higher fail_ratio.
func compareMain(args []string) int {
	var parentFiles, changeFiles []string
	side := &parentFiles
	for _, a := range args {
		if a == "--" {
			side = &changeFiles
			continue
		}
		*side = append(*side, a)
	}
	if len(parentFiles) == 0 || len(changeFiles) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT.json... -- CHANGE.json...")
		return 2
	}
	parent, err := loadValues(parentFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	change, err := loadValues(changeFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	if compareTables(os.Stdout, parent, change) {
		return 1
	}
	return 0
}

// values maps workload → metric → one value per run.
type values map[string]map[string][]float64

func loadValues(files []string) (values, error) {
	out := values{}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc resultDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range doc.Runs {
			if out[run.Workload] == nil {
				out[run.Workload] = map[string][]float64{}
			}
			for name, m := range run.Metrics {
				out[run.Workload][name] = append(out[run.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// comparison is one (workload, metric) row.
type comparison struct {
	parentMedian, parentQ1, parentQ3 float64
	changeMedian, changeQ1, changeQ3 float64
	// worsening is how far the change's median moved in the bad
	// direction, as a share of the parent's median (or absolutely, for an
	// absolute bound); spread is the wider of the two sides'
	// interquartile ranges on the same scale.
	worsening, spread float64
	verdict           verdict
}

// judge compares one metric's runs. A spread wider than the bound cannot
// resolve a movement the size of the bound.
func judge(d metricDef, parent, change []float64) comparison {
	c := comparison{parentMedian: median(parent), changeMedian: median(change)}
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	c.worsening = c.changeMedian - c.parentMedian
	if d.Better == "higher" {
		c.worsening = -c.worsening
	}
	pSpread, cSpread := c.parentQ3-c.parentQ1, c.changeQ3-c.changeQ1
	if !d.Absolute {
		if c.parentMedian == 0 {
			c.verdict = unresolved
			return c
		}
		c.worsening /= c.parentMedian
		pSpread /= c.parentMedian
		if c.changeMedian != 0 {
			cSpread /= c.changeMedian
		}
	}
	c.spread = pSpread
	if cSpread > c.spread {
		c.spread = cSpread
	}
	switch {
	case c.spread > d.Bound:
		c.verdict = unresolved
	case c.worsening > d.Bound:
		c.verdict = worse
	case c.worsening < -d.Bound:
		c.verdict = better
	default:
		c.verdict = within
	}
	return c
}

// compareTables prints the rows and reports whether the comparison
// fails.
func compareTables(w io.Writer, parent, change values) (failed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\tdelta\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			p, c := parent[wl.Name][d.Name], change[wl.Name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			if wl.InsertEvery == 0 && (d.Name == "insert_p50_ms" || d.Name == "insert_p99_ms") {
				continue
			}
			r := judge(d, p, c)
			diff := r.changeMedian - r.parentMedian
			delta := fmt.Sprintf("%+.4g %s", diff, d.Unit)
			bound := fmt.Sprintf("%.4g %s", d.Bound, d.Unit)
			if !d.Absolute {
				delta = fmt.Sprintf("%+.2f%% of %.4g", 100*diff/r.parentMedian, r.parentMedian)
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			if r.verdict == worse || (d.Name == "fail_ratio" && r.worsening > 0) {
				failed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\t%s\n",
				wl.Name, d.Name, r.parentMedian, r.parentQ1, r.parentQ3, len(p),
				r.changeMedian, r.changeQ1, r.changeQ3, len(c), delta, bound, r.verdict)
		}
	}
	tw.Flush()
	return failed
}

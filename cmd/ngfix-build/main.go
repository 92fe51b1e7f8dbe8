// Command ngfix-build constructs an HNSW-NGFix* index from vector files in
// the repository's binary format and saves it to disk.
//
// Usage:
//
//	ngfix-build -base base.ngfx -history hist.ngfx -metric cosine -out index.ngig
//
// The build pipeline is the paper's: HNSW base layer → approximate-NN
// preprocessing for the historical queries → two NGFix rounds (K=30 with
// RFix, then K=10).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

func parseMetric(s string) (vec.Metric, error) {
	switch strings.ToLower(s) {
	case "l2", "euclidean":
		return vec.L2, nil
	case "ip", "innerproduct", "dot":
		return vec.InnerProduct, nil
	case "cos", "cosine":
		return vec.Cosine, nil
	}
	return 0, fmt.Errorf("unknown metric %q (want l2 | ip | cosine)", s)
}

func main() {
	basePath := flag.String("base", "", "base vectors file (required)")
	histPath := flag.String("history", "", "historical query vectors file (optional; skips fixing if absent)")
	metricName := flag.String("metric", "l2", "distance metric: l2 | ip | cosine")
	out := flag.String("out", "index.ngig", "output index path")
	m := flag.Int("m", 16, "HNSW M (out-degree target)")
	efc := flag.Int("efc", 200, "HNSW efConstruction")
	lex := flag.Int("lex", 48, "extra out-degree budget for NGFix/RFix")
	k1 := flag.Int("k1", 30, "first-round fixing neighborhood")
	k2 := flag.Int("k2", 10, "second-round fixing neighborhood (0 disables)")
	prepEF := flag.Int("prep-ef", 200, "search list for approximate-NN preprocessing")
	exact := flag.Bool("exact", false, "use exact (brute force) NN preprocessing")
	flag.Parse()
	// Every numeric flag against its documented range, before any work.
	for _, c := range []struct {
		name string
		ok   bool
		want string
	}{
		{"m", *m >= 2, "at least 2"},
		{"efc", *efc >= 1, "at least 1"},
		{"lex", *lex >= 1, "at least 1"},
		{"k1", *k1 >= 1, "at least 1"},
		{"k2", *k2 >= 0, "at least 0"},
		{"prep-ef", *prepEF >= 1, "at least 1"},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "ngfix-build: -%s %s: must be %s\n", c.name, flag.Lookup(c.name).Value, c.want)
			os.Exit(2)
		}
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ngfix-build:", err)
		os.Exit(1)
	}
	if *basePath == "" {
		fail(fmt.Errorf("-base is required"))
	}
	metric, err := parseMetric(*metricName)
	if err != nil {
		fail(err)
	}
	base, err := dataset.LoadMatrix(*basePath)
	if err != nil {
		fail(err)
	}
	if err := vec.CheckRows(base); err != nil {
		fail(fmt.Errorf("%s: %w", *basePath, err))
	}
	fmt.Printf("loaded %d base vectors (dim %d)\n", base.Rows(), base.Dim())

	start := time.Now()
	h := hnsw.Build(base, hnsw.Config{M: *m, EFConstruction: *efc, Metric: metric})
	g := h.Bottom()
	fmt.Printf("HNSW base layer built in %s (avg degree %.1f)\n", time.Since(start).Round(time.Millisecond), g.AvgDegree())

	rounds := []core.Round{{K: *k1, RFix: true}}
	if *k2 > 0 {
		rounds = append(rounds, core.Round{K: *k2})
	}
	ix := core.New(g, core.Options{Rounds: rounds, LEx: *lex})

	if *histPath != "" {
		hist, err := dataset.LoadMatrix(*histPath)
		if err != nil {
			fail(err)
		}
		fmt.Printf("fixing with %d historical queries...\n", hist.Rows())
		start = time.Now()
		var truth = ix.ApproxTruth(hist, 2*(*k1), *prepEF)
		if *exact {
			truth = core.ExactTruth(base, hist, metric, 2*(*k1))
		}
		rep := ix.Fix(hist, truth)
		fmt.Printf("fixed in %s: +%d NGFix edges, +%d RFix edges (%d queries needed RFix)\n",
			time.Since(start).Round(time.Millisecond), rep.NGFixEdges, rep.RFixEdges, rep.RFixTriggered)
	}

	if err := ix.G.Save(*out); err != nil {
		fail(err)
	}
	fmt.Printf("saved index to %s (%.1f MB, avg degree %.1f)\n",
		*out, float64(ix.G.SizeBytes())/(1<<20), ix.G.AvgDegree())
}

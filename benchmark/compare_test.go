package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	qps, _ := findMetric("search_qps")           // higher is better, 25 %
	recall, _ := findMetric("recall_at_10")      // relative 14 %
	miss, _ := findMetric("open_slo_miss_ratio") // absolute 0.002
	steady := []float64{100, 101, 99, 100}
	cases := []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           verdict
	}{
		{"same", qps, steady, steady, within},
		{"slower", qps, steady, []float64{70, 71, 69, 70}, worse},
		{"faster", qps, steady, []float64{130, 131, 129, 130}, better},
		{"noisy", qps, []float64{100, 130, 80, 100}, []float64{85, 86, 84, 85}, unresolved},
		{"recall held", recall, []float64{0.80, 0.80}, []float64{0.79, 0.79}, within},
		{"misses up", miss, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, worse},
		{"misses same", miss, []float64{0, 0, 0}, []float64{0.001, 0, 0}, within},
	}
	for _, c := range cases {
		if got := judge(c.d, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFailsOnWorseAndOnMoreFailures(t *testing.T) {
	side := func(qps, fail float64) values {
		return values{"ood-ef64": {
			"search_qps": {qps, qps, qps},
			"fail_ratio": {fail, fail, fail},
		}}
	}
	var out bytes.Buffer
	if compareTables(&out, side(100, 0), side(99, 0)) {
		t.Errorf("a 1%% move inside a 20%% bound failed the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "within") || strings.Count(out.String(), "\n") != 3 {
		t.Errorf("want a header and one row per metric present:\n%s", out.String())
	}
	if !compareTables(&out, side(100, 0), side(70, 0)) {
		t.Error("a 30% throughput loss passed")
	}
	if !compareTables(&out, side(100, 0), side(100, 0.0005)) {
		t.Error("a higher fail_ratio passed, even though it is inside the bound")
	}
}

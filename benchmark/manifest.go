package main

import (
	"encoding/json"
)

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// -seconds.
const runSeconds = 10

// contractNames splits the metric tables the way BENCHMARK.json lists
// them: end_to_end carries the metrics every workload reports and that
// are never 0; everything else, gated by `compare` or not, is per_layer.
func contractNames() (e2e, layer []metricDef) {
	for _, d := range endToEnd {
		if d.Contract {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	return e2e, append(layer, perLayer...)
}

// manifestJSON renders BENCHMARK.json from the tables in config.go, so
// the file at the root of the repository is never edited by hand:
//
//	go run -C benchmark . manifest > BENCHMARK.json
func manifestJSON() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{wl.Name, wl.Why})
	}
	e2e, layer := contractNames()
	for _, d := range e2e {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range layer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}

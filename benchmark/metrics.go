package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Workload names. The README's table says why each exists.
const (
	wFig8d   = "fig8d_large"
	wPanels  = "panel_mix"
	wMainnet = "mainnet_cell"
	wStatic  = "serve_static"
	wChurn   = "serve_churn"
)

var workloadNames = []string{wFig8d, wPanels, wMainnet, wStatic, wChurn}

func isServe(w string) bool { return w == wStatic || w == wChurn }

// metricDef mirrors one entry of BENCHMARK.json. The file is the source of
// truth for bounds; the names and units here are what the harness emits, and
// benchmark_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metric names: every workload reports every one, untraced.
const (
	mSetup   = "setup_s"
	mOp      = "op_ms"
	mOpTail  = "op_tail_ms"
	mWork    = "work_per_s"
	mPeakRSS = "peak_rss_mb"
)

var endToEndNames = []string{mSetup, mOp, mOpTail, mWork, mPeakRSS}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics under their BENCHMARK.json names.
type metricSet map[string]metricValue

func (m metricSet) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// setPair records a timing's median and 99th percentile as name.p50/name.p99.
func (m metricSet) setPair(name, unit string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	m.set(name+".p50", unit, percentile(xs, 50))
	m.set(name+".p99", unit, percentile(xs, 99))
}

// project returns exactly the metrics in defs. A per-layer metric the
// workload never produced reads 0: the run spent no time in, and made no
// call to, that layer. A missing end-to-end metric is an error.
func (m metricSet) project(defs []metricDef, strict bool) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			if strict {
				return nil, fmt.Errorf("metric %s was not measured", d.Name)
			}
			v = metricValue{Unit: d.Unit}
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = v
	}
	return out, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place where workload names, metric
// names, units, directions and bounds are written down. The benchmark emits
// values by name, takes each unit from here, and refuses to print a result
// whose names differ from the declared ones.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &spec, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// label attaches the declared unit to every measured value and fails when the
// measured and the declared name sets differ in either direction.
func label(declared []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	var missing []string
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics differ from BENCHMARK.json: not measured %v, not declared %v", missing, extra)
	}
	return out, nil
}

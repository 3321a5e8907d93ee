package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesTheMetrics keeps BENCHMARK.json, which the
// runs are judged by, in step with what lakebench prints.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json at the checkout root: %v", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, lakebench %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, lakebench %v", names, want)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, lakebench prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, lakebench %s %s %s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s bound presence %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds < 1 || len(b.Command) == 0 || len(b.Paths) != 1 || b.Paths[0] != "cmd/lakebench" {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
}

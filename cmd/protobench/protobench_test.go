package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test holds the command to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload for a one-second traced window and checks
// that it reports exactly the metrics BENCHMARK.json names, each with its
// unit and a finite value. A stall the watchdog contained passes; a panic,
// a failed check or a missing metric fails.
func TestSmoke(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, sp := range specs {
		if !slices.Contains(names, sp.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", sp.name)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(names), len(specs))
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			dir := t.TempDir()
			trace := filepath.Join(dir, "trace.json")
			res := measure(config{workload: sp.name, seed: 1, seconds: 1, threads: 1, trace: trace, dumpDir: dir})
			if res.Stalls > 0 {
				t.Logf("stall contained by the watchdog; dump at %s", res.StallDump)
				return
			}
			if !res.Measured || !res.Layered {
				t.Fatalf("no metrics: %v", res.Errors)
			}
			if !res.Correct || res.Failed > 0 || len(res.Errors) > 0 {
				t.Errorf("checks %v, %d of %d ops failed, errors %v", res.Checks, res.Failed, res.Attempted, res.Errors)
			}
			expect(t, "end_to_end", bench.EndToEnd, res.EndToEnd)
			expect(t, "per_layer", bench.PerLayer, res.PerLayer)
			if _, err := os.Stat(trace); err != nil {
				t.Errorf("traced run wrote no span file: %v", err)
			}
		})
	}
}

// expect checks that got holds exactly the metrics of want, with their
// units and finite values: the command prints the map as it is.
func expect(t *testing.T, list string, want []benchMetric, got map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s missing", list, w.Name)
		case m.Unit == "" || m.Unit != w.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", list, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s = %v", list, w.Name, m.Value)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if !seen[name] {
			t.Errorf("%s metric %s is reported but not in BENCHMARK.json", list, name)
		}
	}
}

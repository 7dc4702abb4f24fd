package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// repoRoot is the checkout this package sits in (bench/uniqbench).
const repoRoot = "../.."

// TestMetricsMatchBenchmarkJSON keeps the metric and workload names this
// program prints in step with the contract.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, c.EndToEnd)
	same("per_layer", perLayer, c.PerLayer)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for w := range workloads {
		if !slices.Contains(names, w) {
			t.Errorf("workload %q is missing from BENCHMARK.json", w)
		}
	}
}

// TestSmoke runs every workload for 2 s on a 2-volunteer store, and one
// traced run, through the same entry point the benchmark command uses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the servers")
	}
	check := func(args []string, want []metricDef) {
		var stdout, stderr bytes.Buffer
		code := runMain(append([]string{"-root", repoRoot, "-seconds", "2", "-volunteers", "2"}, args...), &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s\n%s", args, code, stdout.String(), stderr.String())
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line is not the result: %v", args, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%v: correct %v, attempted %d, failed %d", args, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%v: metric %s missing or in the wrong unit (%+v)", args, d.name, m)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(want))
		}
	}
	for _, w := range []string{"enroll", "scene", "track", "profile-read"} {
		t.Run(w, func(t *testing.T) { check([]string{"-workload", w}, endToEnd) })
	}
	t.Run("track-traced", func(t *testing.T) {
		check([]string{"-workload", "track", "-trace", "1", "-spans", t.TempDir() + "/spans.json"}, perLayer)
	})
}

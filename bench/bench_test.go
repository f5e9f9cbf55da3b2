package main

import (
	"sort"
	"testing"
)

// smokeSizes shrinks every workload so that the whole suite, untraced
// and traced, runs in a few seconds.
var smokeSizes = sizes{
	custRows: 2000, wideRows: 6000, eventRows: 2000, subs: 40,
	adhocOps: 60, scanOps: 8, colOps: 10, writeStmts: 2 * cycleStmts, clusterOps: 20,
}

func sortedNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json has %d names, the benchmark %d\n json: %v\n code: %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: BENCHMARK.json has %q where the benchmark has %q", what, got[i], want[i])
		}
	}
}

// TestSmoke runs all five workloads for one pass each way and fails if
// the emitted workload or metric names differ from BENCHMARK.json in
// either direction, or any op fails.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameNames(t, "workloads", names, have)
	units := units()
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json says unit %q, the benchmark %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json says unit %q, the benchmark %q", m.Name, m.Unit, units[m.Name])
		}
	}
	sameNames(t, "end_to_end", e2e, sortedNames(endToEndMetrics))
	sameNames(t, "per_layer", layer, sortedNames(perLayerMetrics))

	sz := smokeSizes
	sz.scratch = t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 60, trace: traced, passes: 1, setups: 1, sizes: sz}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.PerLayer["error_rate"] != 0 {
				t.Errorf("%s (trace %v): correct=%v failed=%d of %d: %s", w.name, traced, res.Correct, res.Failed, res.Attempted, res.Err)
			}
			var got []string
			for name, v := range res.EndToEnd {
				got = append(got, name)
				if v <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, v)
				}
			}
			sameNames(t, w.name+" end_to_end", e2e, got)
			got = nil
			for name := range res.PerLayer {
				got = append(got, name)
			}
			sameNames(t, w.name+" per_layer", layer, got)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

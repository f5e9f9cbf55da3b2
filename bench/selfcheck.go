package main

// -selfcheck: the benchmark measures itself. The whole suite runs in two
// interleaved sets (A B A B ...) on the same code; for every workload ×
// end-to-end metric the two set medians must agree within the bound
// BENCHMARK.json fixes, and every count metric must repeat exactly
// between two traced runs of one seed. The speed metrics, which carry no
// bound, are tabled the same way so that their noise stays on record.
// The tables go to NOISE.md.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the driver's definition).
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// selfcheckRuns is the number of runs in each of the two sets.
const selfcheckRuns = 3

// speedMetrics are the per-layer metrics the self-check tables beside
// the bounded ones.
var speedMetrics = []string{"ops_per_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_op"}

func runSelfcheck(cfg runConfig) error {
	const runs = selfcheckRuns
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	ok := true

	for r := 0; r < runs; r++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				c := cfg
				c.seed, c.trace, c.sizes.scratch = cfg.seed+int64(r), false, ""
				res, err := runWorkload(w, c)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: seed %d: incorrect output: %s (failed %d of %d)", w.name, c.seed, res.Err, res.Failed, res.Attempted)
				}
				for name, v := range res.EndToEnd {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], v)
				}
				for _, name := range speedMetrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], res.PerLayer[name])
				}
				debug.FreeOSMemory()
				fmt.Fprintf(os.Stderr, "selfcheck: run %d set %c %s done\n", r+1, 'A'+set, w.name)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# NOISE — `bench -selfcheck` on identical code\n\n")
	fmt.Fprintf(&b, "Two interleaved sets of %d runs each (A B A B ...), seeds %d..%d, %d timed passes per run, commit %s, %s.\n",
		runs, cfg.seed, cfg.seed+int64(runs)-1, cfg.passes, commit(), cpuModel())
	fmt.Fprintf(&b, "`gap` is how much worse set B's median is than set A's; `spread` is the quartile distance of all %d runs as a share of their median.\n", 2*runs)
	fmt.Fprintf(&b, "PASS means the gap, in either direction, is within the bound BENCHMARK.json fixes.\n\n")
	// row writes the first six cells of a table line and returns the gap.
	row := func(workload, metric string, higherIsBetter bool) float64 {
		k := key{workload, metric}
		a, bb := median(sets[0][k]), median(sets[1][k])
		gap := (bb - a) / a
		if higherIsBetter {
			gap = -gap
		}
		all := append(append([]float64(nil), sets[0][k]...), sets[1][k]...)
		fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% |", workload, metric, a, bb, 100*gap, 100*quartileSpread(all))
		return gap
	}
	fmt.Fprintf(&b, "| workload | metric | median A | median B | gap | spread | bound | |\n|---|---|---:|---:|---:|---:|---:|---|\n")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			gap := row(w.name, m.Name, m.Better == "higher")
			verdict := "PASS"
			if gap > m.Bound || -gap > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(&b, " %.0f%% | %s |\n", 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(&b, "\n## Speed metrics (per-layer, no bound)\n\nThe same runs. These are not bounded because identical code does not repeat them within 10%% on this machine.\n\n")
	fmt.Fprintf(&b, "| workload | metric | median A | median B | gap | spread |\n|---|---|---:|---:|---:|---:|\n")
	for _, w := range workloads {
		for _, name := range speedMetrics {
			row(w.name, name, name == "ops_per_s")
			fmt.Fprintf(&b, "\n")
		}
	}

	// Exact repetition of the counts: two traced runs of one seed.
	fmt.Fprintf(&b, "\n## Count metrics\n\nTwo traced runs of seed %d per workload; every count metric must repeat exactly.\n\n", cfg.seed)
	for _, w := range workloads {
		var first map[string]float64
		var diffs []string
		for i := 0; i < 2; i++ {
			c := cfg
			c.trace, c.sizes.scratch = true, ""
			res, err := runWorkload(w, c)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: traced run: incorrect output: %s", w.name, res.Err)
			}
			if first == nil {
				first = res.PerLayer
				continue
			}
			for _, d := range perLayerMetrics {
				if d.exact && first[d.name] != res.PerLayer[d.name] {
					diffs = append(diffs, fmt.Sprintf("%s: %v then %v", d.name, first[d.name], res.PerLayer[d.name]))
				}
			}
		}
		if len(diffs) == 0 {
			fmt.Fprintf(&b, "- %s: all counts repeat exactly — PASS\n", w.name)
		} else {
			ok = false
			fmt.Fprintf(&b, "- %s: FAIL — %s\n", w.name, strings.Join(diffs, "; "))
		}
		fmt.Fprintf(os.Stderr, "selfcheck: traced pair %s done\n", w.name)
	}

	fmt.Print(b.String())
	if err := os.WriteFile(filepath.Join("bench", "NOISE.md"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("selfcheck failed: see the table")
	}
	return nil
}

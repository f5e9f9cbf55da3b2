// Command bench is minequery's benchmark: five workloads, each driven
// by one closed-loop client against the public surfaces (Engine, the
// server and coordinator handlers, the WAL device), reporting
// end-to-end metrics from untraced passes and per-layer metrics from a
// separate traced run. See README.md in this directory.
//
//	bash bench/run.sh -seed 1                      every workload, both runs, one JSON document
//	bash bench/run.sh -workload scan_row -trace 1  one workload's per-layer metrics
//	bash bench/run.sh -selfcheck                   two interleaved sets of runs compared against the bounds
//
// run.sh builds this directory (a module of its own) and runs the
// binary from the repository root, where it finds BENCHMARK.json.
//
// With -workload the last line of standard output is the one-line JSON
// result BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// workloads is the suite; BENCHMARK.json and README.md record why each
// one exists.
var workloads = []*workload{
	{name: "adhoc_plan", setup: setupAdhoc},
	{name: "scan_row", setup: setupScanRow},
	{name: "scan_columnar", setup: setupScanColumnar},
	{name: "write_stream", setup: setupWriteStream},
	{name: "cluster_read", setup: setupCluster},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// driverLine is the result format of BENCHMARK.json's driver.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMetrics(defs []metricDef, vals map[string]float64) map[string]driverValue {
	out := make(map[string]driverValue, len(defs))
	for _, d := range defs {
		out[d.name] = driverValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// document is the all-workloads report.
type document struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Units      map[string]string `json:"units"`
	Untraced   []*result         `json:"untraced,omitempty"`
	Traced     []*result         `json:"traced,omitempty"`
}

func units() map[string]string {
	u := map[string]string{}
	for _, d := range endToEndMetrics {
		u[d.name] = d.unit
	}
	for _, d := range perLayerMetrics {
		u[d.name] = d.unit
	}
	return u
}

// commit is the revision run.sh read from git (it builds without VCS
// stamping, which fails outside a work tree git trusts), else the one
// the go command stamped.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func printShares(res *result) {
	fmt.Fprintf(os.Stderr, "%s: share of op wall by layer (traced passes, overhead %.1f%%)\n",
		res.Workload, res.PerLayer["trace.overhead_pct"])
	for _, s := range res.Shares {
		fmt.Fprintf(os.Stderr, "  %-14s %5.1f%%\n", s.Layer, 100*s.Share)
	}
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print the driver's one-line JSON result")
		seed      = flag.Int64("seed", 1, "seed of every generated input: rows, constants, op order")
		seconds   = flag.Float64("seconds", 15, "cap on the timed section of one run; the pass count is fixed")
		trace     = flag.String("trace", "", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); unset without -workload: both")
		selfcheck = flag.Bool("selfcheck", false, "run the suite in two interleaved sets and compare their medians against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, passes: timedPasses, setups: setupBuilds, sizes: defaultSizes}

	if *selfcheck {
		if err := runSelfcheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			os.Exit(2)
		}
		cfg.trace = *trace == "1"
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if res.Err != "" {
			fmt.Fprintln(os.Stderr, "bench: incorrect output:", res.Err)
		}
		fmt.Fprintf(os.Stderr, "%s: seed %d checksum %s rows %d ops/pass %d passes %d\n",
			res.Workload, cfg.seed, res.Checksum, res.Rows, res.OpsPerPass, res.Passes)
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed}
		if cfg.trace {
			printShares(res)
			line.Metrics = driverMetrics(perLayerMetrics, res.PerLayer)
		} else {
			line.Metrics = driverMetrics(endToEndMetrics, res.EndToEnd)
		}
		blob, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(blob))
		return
	}

	doc := document{
		Commit: commit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Units: units(),
	}
	ok := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			cfg.trace = traced
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ok = ok && res.Correct
			if traced {
				printShares(res)
				res.EndToEnd = nil
				doc.Traced = append(doc.Traced, res)
			} else {
				doc.Untraced = append(doc.Untraced, res)
			}
		}
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !ok {
		os.Exit(1)
	}
}

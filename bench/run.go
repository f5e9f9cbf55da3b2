package main

// The pass runner. One load goroutine executes a workload's fixed op
// list in a closed loop (the next op starts when the previous one
// returned): an untimed warm-up pass, then timedPasses timed passes with
// a forced GC between them. Every per-pass value is reported as the
// median over the passes, so one disturbed pass cannot move a result.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// fixture is one workload, built and ready to be driven.
type fixture interface {
	// opsPerPass is the fixed op count of every pass; rows is the size
	// of the workload's main table.
	opsPerPass() int
	rows() int
	// preparePass generates pass k's inputs (k = 0 is the warm-up); it
	// runs outside the timed section.
	preparePass(k int)
	// do executes op i of the prepared pass and reports success. tr is
	// nil on untraced passes.
	do(i int, tr *tracer) bool
	// twin, on traced passes only, repeats op i as direct calls into the
	// layers under it. It runs right after the op, outside its timing.
	twin(i int, tr *tracer)
	// afterPass adds the per-layer values observed on pass k to out.
	// Untraced passes (tr == nil) contribute the counters the program
	// itself keeps; traced passes contribute span and operator timings.
	afterPass(k int, tr *tracer, ps *passStats, out map[string]float64)
	// finish adds the per-layer values measured once per run.
	finish(out map[string]float64) error
	// verify checks outputs against the workload's oracle, outside the
	// timed passes, and returns a checksum that depends only on the seed.
	verify() (uint64, error)
	// shares folds the run's per-layer metrics into each layer's part of
	// the op wall time.
	shares(layer map[string]float64) []layerShare
	// enableTrace builds whatever the traced passes need beyond the
	// fixture proper (twin catalogs, direct statement handles).
	enableTrace() error
	close()
}

// passStats is the measurement of one pass.
type passStats struct {
	ops     int
	failed  int
	wall    time.Duration
	lat     []time.Duration // per-op latency, sorted ascending
	cpu     time.Duration   // process user+sys over the pass
	allocKB float64         // TotalAlloc growth over the pass
}

func (p *passStats) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

func (p *passStats) cpuMSPerOp() float64 { return ms(p.cpu) / float64(p.ops) }

func (p *passStats) allocKBPerOp() float64 { return p.allocKB / float64(p.ops) }

// percentileMS is the nearest-rank percentile of the pass's latencies.
func (p *passStats) percentileMS(q float64) float64 {
	i := int(math.Ceil(q*float64(len(p.lat)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(p.lat[i])
}

// slowestMeanMS is the mean of the k slowest ops of the pass.
func (p *passStats) slowestMeanMS(k int) float64 {
	if k <= 0 || k > len(p.lat) {
		return 0
	}
	var sum time.Duration
	for _, d := range p.lat[len(p.lat)-k:] {
		sum += d
	}
	return ms(sum) / float64(k)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass drives one pass of fx. The op latency is the call alone; the
// pass wall also holds the loop's own bookkeeping.
func runPass(fx fixture, tr *tracer) *passStats {
	n := fx.opsPerPass()
	ps := &passStats{ops: n, lat: make([]time.Duration, n)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	var twins time.Duration
	for i := 0; i < n; i++ {
		tr.beginOp(i)
		t := time.Now()
		ok := fx.do(i, tr)
		ps.lat[i] = time.Since(t)
		if !ok {
			ps.failed++
		}
		if tr != nil {
			t = time.Now()
			fx.twin(i, tr)
			twins += time.Since(t)
		}
	}
	ps.wall = time.Since(start) - twins
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ps.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	sort.Slice(ps.lat, func(i, j int) bool { return ps.lat[i] < ps.lat[j] })
	return ps
}

// heapAllocMB reads the live heap; call it right after runtime.GC().
func heapAllocMB() float64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// A run is timedPasses timed passes; a traced run adds one traced pass
// after every tracedEvery-th of them. The counts are fixed, not fitted
// to a duration: on write_stream the table and the in-memory log grow
// with every pass, so memory metrics compare only at equal pass counts.
const (
	timedPasses = 9
	tracedEvery = 3
	setupBuilds = 5 // fixture builds a run takes the median set-up time over
)

// runConfig is what one workload run needs to know.
type runConfig struct {
	seed int64
	// seconds caps the wall of the timed passes: a machine too slow to
	// fit the fixed passes in it stops early (and says so) rather than
	// overrun the driver's time limit. The sizes keep the passes within
	// two thirds of the 15 s BENCHMARK.json gives, on the box the benchmark
	// was sized on in a slow hour.
	seconds float64
	trace   bool
	passes  int // timedPasses; the smoke test runs 1
	setups  int // setupBuilds; the smoke test builds once
	sizes   sizes
}

// result is one workload run.
type result struct {
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Checksum   string             `json:"checksum"`
	Rows       int                `json:"rows"`
	OpsPerPass int                `json:"ops_per_pass"`
	Passes     int                `json:"passes"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Shares     []layerShare       `json:"layer_shares,omitempty"`
	Err        string             `json:"error,omitempty"`
}

// runWorkload builds, drives and checks one workload. Either run yields
// both metric sets; only the traced one fills in span and operator
// timings.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name}
	layer := map[string][]float64{} // per-layer values, one per contributing pass

	var fx fixture
	var setupS []float64
	var phases map[string]float64
	for r := 0; r < cfg.setups; r++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		fx, phases, err = w.setup(cfg.seed, cfg.sizes)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer func() { fx.close() }()
	res.Rows, res.OpsPerPass = fx.rows(), fx.opsPerPass()
	if cfg.trace {
		if err := fx.enableTrace(); err != nil {
			return nil, fmt.Errorf("%s: trace set-up: %w", w.name, err)
		}
	}

	pass := 0 // passes run so far; the warm-up is pass 0
	run := func(tr *tracer) *passStats {
		runtime.GC()
		fx.preparePass(pass)
		ps := runPass(fx, tr)
		res.Attempted += ps.ops
		res.Failed += ps.failed
		vals := map[string]float64{}
		fx.afterPass(pass, tr, ps, vals)
		if pass > 0 { // the warm-up's counters (cold misses, first syncs) are not reported
			for name, v := range vals {
				layer[name] = append(layer[name], v)
			}
		}
		pass++
		return ps
	}

	// The warm-up pass fills caches and fixes the expected answers.
	run(nil)
	var timed, traced []*passStats
	var firstTrace *tracer
	var measured time.Duration // wall of the timed passes so far
	for len(timed) < cfg.passes {
		ps := run(nil)
		timed = append(timed, ps)
		measured += ps.wall
		if cfg.trace && (len(timed)%tracedEvery == 0 || len(timed) == cfg.passes) {
			tr := newTracer()
			traced = append(traced, run(tr))
			if firstTrace == nil {
				firstTrace = tr
			}
		}
		if len(timed) < cfg.passes && measured.Seconds() >= cfg.seconds {
			fmt.Fprintf(os.Stderr, "%s: stopped after %d of %d passes, %gs are over: memory metrics are not comparable with a full run's\n",
				w.name, len(timed), cfg.passes, cfg.seconds)
			break
		}
	}
	res.Passes = len(timed)
	runtime.GC()
	heapMB := heapAllocMB()

	once := map[string]float64{}
	if err := fx.finish(once); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sum, verr := fx.verify()
	res.Checksum = fmt.Sprintf("%016x", sum)
	res.Correct = verr == nil && res.Failed == 0
	if verr != nil {
		res.Err = verr.Error()
	}

	overPasses := func(f func(*passStats) float64, from []*passStats) float64 {
		out := make([]float64, len(from))
		for i, p := range from {
			out[i] = f(p)
		}
		return median(out)
	}
	res.EndToEnd = map[string]float64{
		"setup_s":          median(setupS),
		"alloc_kb_per_op":  overPasses((*passStats).allocKBPerOp, timed),
		"heap_after_gc_mb": heapMB,
	}

	// Per-layer values: a count repeats exactly for a seed, so it is
	// taken from the first pass that measured it (later passes may see
	// different data on the write workload); a timing is the median over
	// the passes that measured it.
	res.PerLayer = map[string]float64{}
	for _, d := range perLayerMetrics {
		res.PerLayer[d.name] = 0
	}
	for name, v := range phases {
		res.PerLayer[name] = v
	}
	for name, vals := range layer {
		if perLayerIndex[name].exact {
			res.PerLayer[name] = vals[0]
		} else {
			res.PerLayer[name] = median(vals)
		}
	}
	for name, v := range once {
		res.PerLayer[name] = v
	}
	res.PerLayer["ops_per_s"] = overPasses((*passStats).opsPerSec, timed)
	res.PerLayer["latency_p50_ms"] = overPasses(func(p *passStats) float64 { return p.percentileMS(0.50) }, timed)
	res.PerLayer["latency_p95_ms"] = overPasses(func(p *passStats) float64 { return p.percentileMS(0.95) }, timed)
	res.PerLayer["cpu_ms_per_op"] = overPasses((*passStats).cpuMSPerOp, timed)
	res.PerLayer["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	if cfg.trace {
		u, t := res.PerLayer["ops_per_s"], overPasses((*passStats).opsPerSec, traced)
		res.PerLayer["trace.overhead_pct"] = 100 * (u - t) / u
		res.Shares = fx.shares(res.PerLayer)
		if dir := cfg.sizes.scratch; dir != "" {
			if err := firstTrace.writeFile(fmt.Sprintf("%s/trace-%s.json", dir, w.name)); err != nil {
				return nil, fmt.Errorf("%s: write spans: %w", w.name, err)
			}
		}
	}
	for name := range res.PerLayer {
		if _, ok := perLayerIndex[name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %q is not declared", w.name, name)
		}
	}
	runtime.KeepAlive(fx)
	return res, nil
}

package metrics

import (
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestExpositionBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Add(3)
	r.GaugeFunc("test_depth", "Queue depth.", func() float64 { return 5 })
	r.GaugeFunc("test_live", "Live things.", func() float64 { return 4.5 })
	r.CounterFunc("test_seen_total", "Things seen.", func() float64 { return 9 })

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Operations.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# TYPE test_depth gauge",
		"test_depth 5",
		"test_live 4.5",
		"test_seen_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Registration order is preserved: families appear as registered.
	if strings.Index(out, "test_ops_total") > strings.Index(out, "test_depth") {
		t.Error("families not in registration order")
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_lat_seconds", "Latency.", "op", []float64{0.1, 1, 10}).With("get")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		`test_lat_seconds_bucket{op="get",le="0.1"} 1`,
		`test_lat_seconds_bucket{op="get",le="1"} 3`,
		`test_lat_seconds_bucket{op="get",le="10"} 4`,
		`test_lat_seconds_bucket{op="get",le="+Inf"} 5`,
		`test_lat_seconds_count{op="get"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got < 56 || got > 56.1 {
		t.Errorf("Sum = %g, want 56.05", got)
	}
}

func TestVecChildrenSortedAndQuoted(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_by_path_total", "By path.", "path")
	v.With("seqscan").Add(2)
	v.With("index").Inc()
	v.With(`we"ird\`).Inc()
	out := scrape(t, r)
	iIdx := strings.Index(out, `test_by_path_total{path="index"} 1`)
	sIdx := strings.Index(out, `test_by_path_total{path="seqscan"} 2`)
	if iIdx < 0 || sIdx < 0 || iIdx > sIdx {
		t.Errorf("children missing or unsorted:\n%s", out)
	}
	// %q-escaped label value: quote and backslash escaped.
	if !strings.Contains(out, `test_by_path_total{path="we\"ird\\"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("test_stage_seconds", "Stage latency.", "stage", []float64{1})
	hv.With("parse").Observe(0.5)
	hv.With("execute").Observe(2)
	out := scrape(t, r)
	for _, want := range []string{
		`test_stage_seconds_bucket{stage="parse",le="1"} 1`,
		`test_stage_seconds_bucket{stage="execute",le="+Inf"} 1`,
		`test_stage_seconds_count{stage="parse"} 1`,
		`test_stage_seconds_sum{stage="execute"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	for name, fn := range map[string]func(){
		"duplicate": func() { r.Counter("dup_total", "second") },
		"invalid":   func() { r.Counter("0bad name", "bad") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	h := r.HistogramVec("conc_seconds", "h", "x", []float64{1}).With("a")
	v := r.CounterVec("conc_by_x_total", "v", "x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || v.With("a").Value() != 8000 {
		t.Errorf("lost updates: counter=%d hist=%d vec=%d", c.Value(), h.Count(), v.With("a").Value())
	}
	if got := h.Sum(); got != 4000 {
		t.Errorf("Sum = %g, want 4000", got)
	}
}

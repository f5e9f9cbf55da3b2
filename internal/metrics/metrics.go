// Package metrics is a dependency-free metrics registry with Prometheus
// text exposition: atomic counters and gauges, callback gauges for
// sampling existing stats structs at scrape time, and fixed-bucket
// latency histograms. It exists so the engine and minequeryd can expose
// operational series without importing a client library (the repo's
// no-new-dependencies rule), and implements just the subset of the
// exposition format the series need: HELP/TYPE comments, label pairs,
// and cumulative histogram buckets.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the series to stay monotone; this is
// not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBuckets spans 100µs to 10s, the range of interest for
// query latency: sub-millisecond index seeks through multi-second
// parallel scans.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution. Observations are lock-free;
// exposition renders cumulative Prometheus buckets with an implicit
// +Inf bucket.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear probe: bucket counts are small (~16) and the common case
	// (small latencies) exits early.
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CounterVec is a family of counters split by one label.
type CounterVec struct {
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns (creating on first use) the child counter for a label
// value.
func (v *CounterVec) With(labelValue string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[labelValue]
	if !ok {
		c = &Counter{}
		v.children[labelValue] = c
	}
	return c
}

// HistogramVec is a family of histograms split by one label.
type HistogramVec struct {
	label    string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns (creating on first use) the child histogram for a label
// value.
func (v *HistogramVec) With(labelValue string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[labelValue]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[labelValue] = h
	}
	return h
}

// family is one registered metric name with its exposition metadata.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	counter      *Counter
	gaugeFn      func() float64
	counterFn    func() float64
	counterVec   *CounterVec
	histogramVec *HistogramVec
}

// Registry holds a set of metric families and renders them in
// Prometheus text exposition format. Registration methods panic on an
// invalid or duplicate name: metrics are registered once at startup,
// so a clash is a programming error, not a runtime condition.
type Registry struct {
	mu     sync.Mutex
	fams   []*family // registration order
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
		case '0' <= c && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// scrape time — the bridge for stats structs that already exist.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", gaugeFn: fn})
}

// CounterFunc registers a counter whose value is read by calling fn at
// scrape time. fn must be monotone for the series to behave as a
// Prometheus counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", counterFn: fn})
}

// CounterVec registers and returns a counter family split by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if !validName(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	v := &CounterVec{label: label, children: map[string]*Counter{}}
	r.register(&family{name: name, help: help, typ: "counter", counterVec: v})
	return v
}

// HistogramVec registers and returns a histogram family split by one
// label (nil bounds: DefaultLatencyBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if !validName(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	v := &HistogramVec{label: label, bounds: bs, children: map[string]*Histogram{}}
	r.register(&family{name: name, help: help, typ: "histogram", histogramVec: v})
	return v
}

// WritePrometheus renders every registered family in text exposition
// format, in registration order (vec children in sorted label order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counter.Value())
		case f.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		case f.counterFn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.counterFn()))
		case f.counterVec != nil:
			v := f.counterVec
			v.mu.Lock()
			keys := sortedKeys(v.children)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", f.name, v.label, k, v.children[k].Value())
			}
			v.mu.Unlock()
		case f.histogramVec != nil:
			v := f.histogramVec
			v.mu.Lock()
			keys := sortedKeys(v.children)
			hs := make([]*Histogram, len(keys))
			for i, k := range keys {
				hs[i] = v.children[k]
			}
			v.mu.Unlock()
			for i, k := range keys {
				writeHistogram(&b, f.name, v.label, k, hs[i])
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeHistogram renders one vec child's cumulative buckets plus _sum
// and _count.
func writeHistogram(b *strings.Builder, name, label, labelValue string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, label, labelValue, formatFloat(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, labelValue, h.Count())
	fmt.Fprintf(b, "%s_sum{%s=%q} %s\n", name, label, labelValue, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, label, labelValue, h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

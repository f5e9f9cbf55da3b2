package main

// Span tracing from the benchmark's own files: one span per call across
// a module boundary (handler ServeHTTP, Engine.Prepare, Device.Sync, a
// RoundTrip to a shard, ...), kept in memory and written out when the
// run ends. The engine is not instrumented here — spans inside the
// program are a later change — so a layer the benchmark cannot call
// directly is measured as the remainder of the span that contains it.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed boundary call. Parent is the index of the span that
// caused it (-1 for an op's root span); Op is the op's index in its
// pass, shared by every span of the op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one traced pass. A nil *tracer records
// nothing, which is how untraced passes run the same code. Shard hops
// start spans from the coordinator's goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// op and cur are the running op's index and innermost open span on
	// the load goroutine; spans started from other goroutines name their
	// parent explicitly.
	op  int
	cur int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// beginOp marks the start of op i: spans started until the next beginOp
// carry its index.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op, t.cur = i, -1
	t.mu.Unlock()
}

// start opens a span under the load goroutine's innermost open span and
// makes it the innermost. Pair with end.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = id
	t.mu.Unlock()
	return id
}

// end closes a span opened by start and restores its parent as the
// innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.cur = t.spans[id].Parent
	t.mu.Unlock()
}

// startUnder opens a span with an explicit parent without touching the
// load goroutine's stack; safe from any goroutine. Pair with endAsync.
func (t *tracer) startUnder(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) endAsync(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanAgg sums one span name over a pass.
type spanAgg struct {
	count  int
	total  time.Duration // wall of the spans
	self   time.Duration // wall minus the interval their children cover
	maxSum time.Duration // sum over ops of the op's longest span of this name
}

// aggregate folds the pass's spans by name. Self time subtracts the
// union of the direct children's intervals, so two shard hops that
// overlap are not subtracted twice.
func (t *tracer) aggregate() map[string]*spanAgg {
	out := map[string]*spanAgg{}
	if t == nil {
		return out
	}
	kids := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	type opName struct {
		op   int
		name string
	}
	longest := map[opName]time.Duration{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.count++
		a.total += d
		a.self += d - t.covered(s, kids[i])
		if k := (opName{s.Op, s.Name}); d > longest[k] {
			longest[k] = d
		}
	}
	for k, d := range longest {
		out[k.name].maxSum += d
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := t.spans[k].Start, t.spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	end = -1
	for _, x := range iv {
		if x[0] > end {
			sum += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(sum)
}

// writeFile dumps the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

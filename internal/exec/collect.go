// Per-operator runtime collection: when a Collector is attached to the
// execution Options, every batch operator is wrapped with a lightweight
// shim that counts rows, batches, and wall time per plan node, scan
// leaves count their page/tuple I/O into the query's own Counters (the
// only place a read is counted), and morsel-scan workers report
// per-worker time at DOP>1. The numbers feed EXPLAIN ANALYZE, the
// engine's metrics series, and the server's slow-query log.
package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"minequery/internal/exec/vec"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// OpStats accumulates one plan operator's actuals over a query
// execution. Fields are atomic so scan leaves fed by concurrent morsel
// workers and single-threaded consumers share one update path.
type OpStats struct {
	// Rows and Batches count the operator's output; Calls counts
	// NextBatch invocations (including the final exhausted one).
	Rows    atomic.Int64
	Batches atomic.Int64
	Calls   atomic.Int64
	// WallNanos is time spent inside this operator's NextBatch,
	// inclusive of its children (subtract the child's WallNanos for
	// self time).
	WallNanos atomic.Int64
	// EnvRejected / ResidRejected split a filter's rejected rows by
	// cause when envelope attribution is enabled: rows the added
	// envelope pruned that the query's own predicate would have kept,
	// vs rows the original (residual) predicate rejects anyway.
	EnvRejected   atomic.Int64
	ResidRejected atomic.Int64
}

// WorkerStats is one morsel-scan worker's share of a parallel scan.
type WorkerStats struct {
	Morsels   atomic.Int64
	Rows      atomic.Int64
	WallNanos atomic.Int64
}

// Collector gathers one query execution's runtime statistics. Create
// one per execution with NewCollector and attach it via Options; a nil
// Collector (the zero Options) runs the uninstrumented operators.
type Collector struct {
	// IO is the query's storage account, and the only one: scan leaves
	// add their page and tuple reads here and nowhere else, so
	// overlapping queries never pollute each other's ExecStats.
	IO storage.Counters

	// Retries counts transient storage/seek failures absorbed by the
	// retry layer during this execution — failures the query survived
	// without surfacing an error or falling back.
	Retries atomic.Int64

	// AggMerges counts partial-aggregate state merges performed while
	// combining per-worker (and, at the coordinator, per-shard) tables
	// into the final aggregate.
	AggMerges atomic.Int64

	// bound is the tree the execution runs, set as it starts (attach),
	// and ops its nodes' stats, by ordinal.
	bound *Bound
	ops   []OpStats

	mu      sync.Mutex
	workers []*WorkerStats
	bases   []envBaseline
	vecInfo []*VecScanInfo // by ordinal, made at the first report
}

// envBaseline is one Filter's attribution predicate (SetEnvelopeBaseline).
type envBaseline struct {
	node plan.Node
	pred expr.Expr
}

// VecScanInfo reports a columnar scan leaf's actuals: how many column
// groups it processed and, for a fused filter, the adaptive term
// ordering outcome (vec.Report: the combiner, the frozen order, the
// per-term counters). Its presence for a scan node is what marks the
// execution as having actually run columnar (the plan flag alone is only
// a hint).
type VecScanInfo struct {
	Groups int64
	vec.Report
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// attach gives the collector a slot per node of b's tree, at the start
// of an execution of b. A collector serves the executions of one tree:
// attached again for the same tree — re-bound, or run once more — it
// keeps counting into the same slots.
func (c *Collector) attach(b *Bound) {
	if c == nil {
		return
	}
	if c.bound == nil || c.bound.nodes[0].node != b.nodes[0].node {
		c.ops = make([]OpStats, len(b.nodes))
		c.vecInfo = nil
	}
	c.bound = b
}

// slot is the stats of the node at ordinal i.
func (c *Collector) slot(i int) *OpStats { return &c.ops[i] }

// Op returns the stats slot for a plan node: zero for a node the
// execution did not run.
func (c *Collector) Op(n plan.Node) *OpStats {
	if i := c.bound.ord(n); i >= 0 {
		return &c.ops[i]
	}
	return new(OpStats)
}

// SetEnvelopeBaseline enables rejection attribution for a Filter node:
// base is the predicate the query would have applied without envelope
// augmentation. Rejected rows that base accepts are counted as pruned
// by the envelope; rows base also rejects are residual rejections.
// Attribution costs one extra predicate evaluation per rejected row, so
// it is only enabled for EXPLAIN ANALYZE runs. It is set before the
// execution starts, whose plan is then bound afresh: the scan decodes
// base's columns too.
func (c *Collector) SetEnvelopeBaseline(n plan.Node, base expr.Expr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.bases {
		if c.bases[i].node == n {
			c.bases[i].pred = base
			return
		}
	}
	c.bases = append(c.bases, envBaseline{n, base})
}

// envBaseline returns the attribution predicate for a filter node, or
// nil when attribution is off.
func (c *Collector) envBaseline(n plan.Node) expr.Expr {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bases {
		if b.node == n {
			return b.pred
		}
	}
	return nil
}

// attributes reports whether an execution under c re-checks any
// envelope baseline.
func (c *Collector) attributes() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bases) > 0
}

// setVecInfo records the actuals of the columnar scan leaf at ordinal i.
func (c *Collector) setVecInfo(i int, info *VecScanInfo) {
	c.mu.Lock()
	if c.vecInfo == nil {
		c.vecInfo = make([]*VecScanInfo, len(c.ops))
	}
	c.vecInfo[i] = info
	c.mu.Unlock()
}

// VecInfo returns the columnar actuals for a scan node, or nil when the
// node executed on the row path.
func (c *Collector) VecInfo(n plan.Node) *VecScanInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.bound.ord(n); i >= 0 && c.vecInfo != nil {
		return c.vecInfo[i]
	}
	return nil
}

// newWorker registers one morsel-scan worker.
func (c *Collector) newWorker() *WorkerStats {
	ws := &WorkerStats{}
	c.mu.Lock()
	c.workers = append(c.workers, ws)
	c.mu.Unlock()
	return ws
}

// Workers snapshots the registered morsel-scan workers.
func (c *Collector) Workers() []*WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*WorkerStats(nil), c.workers...)
}

// ioOf returns the per-query counter sink, or nil without a collector.
func ioOf(c *Collector) *storage.Counters {
	if c == nil {
		return nil
	}
	return &c.IO
}

// instrumented wraps a batch operator with per-node accounting. The
// clock cost is two monotonic reads per batch (not per row), so the
// instrumented tree stays within a few percent of the bare one.
type instrumented struct {
	child BatchIterator
	st    *OpStats
}

func (i *instrumented) Schema() *value.Schema { return i.child.Schema() }

func (i *instrumented) NextBatch() (Batch, bool, error) {
	start := time.Now()
	b, done, err := i.child.NextBatch()
	i.st.WallNanos.Add(time.Since(start).Nanoseconds())
	i.st.Calls.Add(1)
	if err == nil && !done {
		i.st.Batches.Add(1)
		i.st.Rows.Add(int64(len(b)))
	}
	return b, done, err
}

func (i *instrumented) Close() { i.child.Close() }

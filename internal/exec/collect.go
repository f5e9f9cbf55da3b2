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

	mu      sync.Mutex
	ops     map[plan.Node]*OpStats
	workers []*WorkerStats
	envBase map[plan.Node]expr.Expr
	vecInfo map[plan.Node]*VecScanInfo
}

// VecTermActual is one top-level predicate term's measured counters from
// a columnar scan: candidate rows it ran a loop over (Evaluated), rows in
// groups whose dictionaries answered it without one (Skipped), and rows
// that passed (Evaluated + Skipped - Passed were rejected by this term).
type VecTermActual struct {
	Index     int
	Term      string
	Evaluated int64
	Skipped   int64
	Passed    int64
}

// VecScanInfo reports a columnar scan leaf's actuals: how many column
// groups it processed and, for a fused filter, the adaptive term
// ordering outcome. Its presence for a scan node is what marks the
// execution as having actually run columnar (the plan flag alone is only
// a hint).
type VecScanInfo struct {
	Groups int64
	// Combiner is "AND" or "OR" for a multi-term predicate, "" otherwise.
	Combiner string
	// Order is the frozen evaluation order as original term indices.
	Order []int
	// Terms lists per-term counters in original index order.
	Terms []VecTermActual
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{ops: map[plan.Node]*OpStats{}, envBase: map[plan.Node]expr.Expr{}}
}

// Op returns (creating on first use) the stats slot for a plan node.
func (c *Collector) Op(n plan.Node) *OpStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.ops[n]
	if !ok {
		st = &OpStats{}
		c.ops[n] = st
	}
	return st
}

// SetEnvelopeBaseline enables rejection attribution for a Filter node:
// base is the predicate the query would have applied without envelope
// augmentation. Rejected rows that base accepts are counted as pruned
// by the envelope; rows base also rejects are residual rejections.
// Attribution costs one extra predicate evaluation per rejected row, so
// it is only enabled for EXPLAIN ANALYZE runs.
func (c *Collector) SetEnvelopeBaseline(n plan.Node, base expr.Expr) {
	c.mu.Lock()
	c.envBase[n] = base
	c.mu.Unlock()
}

// envBaseline returns the attribution predicate for a filter node, or
// nil when attribution is off.
func (c *Collector) envBaseline(n plan.Node) expr.Expr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.envBase[n]
}

// setVecInfo records a columnar scan leaf's actuals.
func (c *Collector) setVecInfo(n plan.Node, info *VecScanInfo) {
	c.mu.Lock()
	if c.vecInfo == nil {
		c.vecInfo = map[plan.Node]*VecScanInfo{}
	}
	c.vecInfo[n] = info
	c.mu.Unlock()
}

// VecInfo returns the columnar actuals for a scan node, or nil when the
// node executed on the row path.
func (c *Collector) VecInfo(n plan.Node) *VecScanInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vecInfo[n]
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

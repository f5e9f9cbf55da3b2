package minequery

import (
	"strconv"
	"time"

	"minequery/internal/exec"
	"minequery/internal/metrics"
	"minequery/internal/plan"
)

// MetricsRegistry is the engine's metrics registry type (re-exported so
// downstream users never import internal packages). Register engine
// series with Engine.RegisterMetrics, add your own alongside, and
// expose everything with WritePrometheus.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// engineMetrics holds the engine-wide series. The struct is installed
// atomically on the Engine so the query path reads one pointer; a nil
// receiver disables every observation.
type engineMetrics struct {
	queriesByPath   *metrics.CounterVec
	stageSeconds    *metrics.HistogramVec
	rowsScanned     *metrics.Counter
	rowsReturned    *metrics.Counter
	fallbacks       *metrics.Counter
	retriesTotal    *metrics.Counter
	partsPruned     *metrics.Counter
	partsScanned    *metrics.Counter
	columnarScans   *metrics.Counter
	termRejected    *metrics.CounterVec
	aggQueries      *metrics.Counter
	aggMerges       *metrics.Counter
	walAppends      *metrics.Counter
	walFsyncs       *metrics.Counter
	walReplayed     *metrics.Counter
	dmlStatements   *metrics.CounterVec
	dmlRows         *metrics.Counter
	retrains        *metrics.Counter
	retrainFailures *metrics.Counter
}

// dmlOpLabels pre-creates the per-op statement children so the frozen
// series list is visible on an idle engine.
var dmlOpLabels = []string{"insert", "update", "delete", "create_model"}

// columnarTermLabels pre-creates per-term rejection children for the
// first few term positions so the frozen series list is visible on an
// idle engine; wider predicates add children on first use.
var columnarTermLabels = []string{"0", "1", "2", "3"}

// queryStages are the pipeline stages timed per query.
var queryStages = []string{"parse", "rewrite", "optimize", "execute"}

// RegisterMetrics registers the engine-wide series on r and starts
// feeding them from every subsequent query:
//
//	minequery_queries_total{path}        completed queries by access path
//	minequery_query_stage_seconds{stage} per-stage latency histogram
//	minequery_rows_scanned_total         tuples read from storage
//	minequery_rows_returned_total        tuples returned to callers
//	minequery_fallbacks_total            index-path queries degraded to seqscan
//	minequery_retries_total              transient failures absorbed by retry
//	minequery_partitions_pruned_total    partitions proven disjoint and skipped
//	minequery_partitions_scanned_total   partitions surviving pruning
//	minequery_columnar_scans_total       scans executed on the column-group path
//	minequery_columnar_term_rejected_total{term} rows rejected per predicate term position
//	minequery_agg_queries_total          completed GROUP BY / aggregate queries
//	minequery_agg_partial_merges_total   partial-aggregate state merges (workers, partitions, shards)
//	minequery_wal_appends_total          WAL frames appended by write statements
//	minequery_wal_fsyncs_total           WAL fsync barriers completed
//	minequery_wal_replay_frames_total    WAL frames replayed during recovery
//	minequery_dml_statements_total{op}   completed write statements by kind
//	minequery_dml_rows_total             rows written (inserted, updated, deleted)
//	minequery_retrains_total             models retrained by the write-volume trigger
//	minequery_retrain_failures_total     write-volume retrains that failed (writes stay committed; retried next write)
//	minequery_standing_registered        live standing-query subscriptions
//	minequery_standing_matches_total     standing-query matches generated (delivered or dropped)
//	minequery_standing_evals_total       (row, candidate-subscription) standing evaluations after index pruning
//	minequery_standing_dropped_total     standing notifications dropped on a full queue
//	minequery_standing_recompiles_total  shared standing-set recompilations
//
// Call it once per registry; series names panic on double registration.
func (e *Engine) RegisterMetrics(r *MetricsRegistry) {
	em := &engineMetrics{
		queriesByPath: r.CounterVec("minequery_queries_total",
			"Completed queries by base-table access path.", "path"),
		stageSeconds: r.HistogramVec("minequery_query_stage_seconds",
			"Per-stage query latency in seconds.", "stage", nil),
		rowsScanned: r.Counter("minequery_rows_scanned_total",
			"Tuples read from storage by query execution."),
		rowsReturned: r.Counter("minequery_rows_returned_total",
			"Tuples returned to callers by query execution."),
		fallbacks: r.Counter("minequery_fallbacks_total",
			"Queries whose index path failed transiently and re-ran on the baseline sequential scan."),
		retriesTotal: r.Counter("minequery_retries_total",
			"Transient storage/seek failures absorbed by the retry layer."),
		partsPruned: r.Counter("minequery_partitions_pruned_total",
			"Partitions the optimizer proved disjoint from the predicate and skipped."),
		partsScanned: r.Counter("minequery_partitions_scanned_total",
			"Partitions that survived pruning on queries over partitioned tables."),
		columnarScans: r.Counter("minequery_columnar_scans_total",
			"Sequential scans executed on the vectorized column-group path."),
		termRejected: r.CounterVec("minequery_columnar_term_rejected_total",
			"Rows rejected by each predicate term (by original term position) on columnar scans.", "term"),
		aggQueries: r.Counter("minequery_agg_queries_total",
			"Completed queries with GROUP BY or aggregate select items."),
		aggMerges: r.Counter("minequery_agg_partial_merges_total",
			"Partial-aggregate state merges across morsel workers, columnar groups, partitions, and shards."),
		walAppends: r.Counter("minequery_wal_appends_total",
			"WAL frames appended (and made durable) by write statements."),
		walFsyncs: r.Counter("minequery_wal_fsyncs_total",
			"WAL fsync barriers completed on the commit path."),
		walReplayed: r.Counter("minequery_wal_replay_frames_total",
			"WAL frames replayed during crash recovery."),
		dmlStatements: r.CounterVec("minequery_dml_statements_total",
			"Completed write statements by kind.", "op"),
		dmlRows: r.Counter("minequery_dml_rows_total",
			"Rows written by DML statements (inserted, updated, deleted)."),
		retrains: r.Counter("minequery_retrains_total",
			"Models retrained by the write-volume retrain trigger."),
		retrainFailures: r.Counter("minequery_retrain_failures_total",
			"Write-volume retrains that failed after a committed write (the write stays durable; the retrain retries on the next write)."),
	}
	// The standing-query series read the live Set counters on scrape, so
	// they need no feed path through the engine.
	r.GaugeFunc("minequery_standing_registered",
		"Live standing-query subscriptions.",
		func() float64 { return float64(e.standing.Registered()) })
	r.CounterFunc("minequery_standing_matches_total",
		"Standing-query matches generated (delivered or dropped).",
		func() float64 { return float64(e.standing.Matches()) })
	r.CounterFunc("minequery_standing_evals_total",
		"Per-row candidate-subscription evaluations that survived standing-index pruning.",
		func() float64 { return float64(e.standing.Evals()) })
	r.CounterFunc("minequery_standing_dropped_total",
		"Standing-query notifications dropped because the delivery queue was full.",
		func() float64 { return float64(e.standing.Dropped()) })
	r.CounterFunc("minequery_standing_recompiles_total",
		"Recompilations of the shared standing-query structure (subscription churn or catalog invalidation).",
		func() float64 { return float64(e.standing.Recompiles()) })
	// Pre-create the label children so every series is visible from the
	// first scrape (a frozen series list is lintable even on an idle
	// engine).
	for _, p := range []plan.AccessPath{plan.AccessSeqScan, plan.AccessIndex, plan.AccessIndexUnion, plan.AccessConstant} {
		em.queriesByPath.With(p.String())
	}
	for _, s := range queryStages {
		em.stageSeconds.With(s)
	}
	for _, l := range columnarTermLabels {
		em.termRejected.With(l)
	}
	for _, op := range dmlOpLabels {
		em.dmlStatements.With(op)
	}
	e.metrics.Store(em)
}

// stage records one pipeline stage's latency (nil-safe).
func (em *engineMetrics) stage(name string, d time.Duration) {
	if em == nil {
		return
	}
	em.stageSeconds.With(name).Observe(d.Seconds())
}

// query records one completed query (nil-safe).
func (em *engineMetrics) query(path string, scanned, returned int64) {
	if em == nil {
		return
	}
	em.queriesByPath.With(path).Inc()
	em.rowsScanned.Add(scanned)
	em.rowsReturned.Add(returned)
}

// fallback records one degraded execution (nil-safe).
func (em *engineMetrics) fallback() {
	if em == nil {
		return
	}
	em.fallbacks.Inc()
}

// retries records transient failures absorbed during one execution
// (nil-safe).
func (em *engineMetrics) retries(n int64) {
	if em == nil || n == 0 {
		return
	}
	em.retriesTotal.Add(n)
}

// columnar records one columnar-scan execution and its per-term
// rejection counts (nil-safe).
func (em *engineMetrics) columnar(info *exec.VecScanInfo) {
	if em == nil || info == nil {
		return
	}
	em.columnarScans.Inc()
	for _, t := range info.Terms {
		em.termRejected.With(strconv.Itoa(t.Index)).Add(t.Evaluated + t.Skipped - t.Passed)
	}
}

// agg records one aggregate query and its partial-state merge count
// (nil-safe; no-op for non-aggregate queries).
func (em *engineMetrics) agg(isAgg bool, merges int64) {
	if em == nil || !isAgg {
		return
	}
	em.aggQueries.Inc()
	em.aggMerges.Add(merges)
}

// walAppend records one durable WAL frame: an append plus the fsync
// barrier that acked it (nil-safe).
func (em *engineMetrics) walAppend() {
	if em == nil {
		return
	}
	em.walAppends.Inc()
	em.walFsyncs.Inc()
}

// walReplay records frames replayed during recovery (nil-safe).
func (em *engineMetrics) walReplay(frames int64) {
	if em == nil || frames == 0 {
		return
	}
	em.walReplayed.Add(frames)
}

// dml records one completed write statement and its row count
// (nil-safe).
func (em *engineMetrics) dml(op string, rows int64) {
	if em == nil {
		return
	}
	em.dmlStatements.With(op).Inc()
	em.dmlRows.Add(rows)
}

// retrain records write-volume-triggered model retrains (nil-safe).
func (em *engineMetrics) retrain(n int64) {
	if em == nil {
		return
	}
	em.retrains.Add(n)
}

// retrainFailure records one failed write-volume retrain (nil-safe).
func (em *engineMetrics) retrainFailure() {
	if em == nil {
		return
	}
	em.retrainFailures.Inc()
}

// partitions records one query's partition-pruning outcome (nil-safe;
// no-op for unpartitioned tables, where total is 0).
func (em *engineMetrics) partitions(total, pruned int) {
	if em == nil || total == 0 {
		return
	}
	em.partsPruned.Add(int64(pruned))
	em.partsScanned.Add(int64(total - pruned))
}

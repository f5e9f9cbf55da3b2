// Package minequery is an embedded relational engine with first-class
// mining models and semantic optimization of queries with mining
// predicates, reproducing "Efficient Evaluation of Queries with Mining
// Predicates" (Chaudhuri, Narasayya, Sarawagi — ICDE 2002).
//
// A minequery Engine stores tables (heap files with optional B+-tree
// indexes), trains or imports discrete predictive models (decision
// trees, naive Bayes, rule lists, k-means, Gaussian mixtures), and runs
// a SQL dialect with PREDICTION JOIN. When a query filters on a
// predicted column ("mining predicate"), the engine adds the model's
// precomputed upper-envelope predicate — a propositional predicate over
// the data columns implied by the prediction — and lets the cost-based
// optimizer exploit indexes or even prove the query empty, exactly the
// optimization the paper proposes.
//
// The quick start is ExampleEngine (example_test.go), which go test
// compiles and runs: it creates a table, trains a decision tree on it
// and runs a query with a mining predicate.
package minequery

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/opt"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/standing"
	"minequery/internal/value"
	"minequery/internal/wal"
)

// Re-exported value types so downstream users never import internal
// packages.
type (
	// Value is a typed SQL scalar.
	Value = value.Value
	// Tuple is one row of Values.
	Tuple = value.Tuple
	// Schema describes a relation's columns.
	Schema = value.Schema
	// Column is one schema column.
	Column = value.Column
	// Kind is a value type tag.
	Kind = value.Kind
	// Model is a trained discrete predictive model.
	Model = mining.Model
	// TrainSet is the literal, row-major training input a caller builds
	// for an inducer's Train; inducers train over its columns.
	TrainSet = mining.TrainSet
	// Expr is a predicate expression (envelopes are Exprs).
	Expr = expr.Expr
	// EnvelopeCache memoizes envelope derivations across queries; see
	// SetEnvelopeCache.
	EnvelopeCache = core.EnvelopeCache
	// CachedEnvelope is one EnvelopeCache entry.
	CachedEnvelope = core.CachedEnvelope
	// InvalidationEvent describes a catalog change that invalidates
	// cached plans; see OnInvalidate.
	InvalidationEvent = catalog.InvalidationEvent
	// RowSink consumes a statement's rows as the plan produces them; see
	// (*Prepared).ExecuteInto.
	RowSink = exec.RowSink
)

// Value kind constants.
const (
	KindNull   = value.KindNull
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindString = value.KindString
	KindBool   = value.KindBool
)

// Value constructors.
var (
	// Int makes an INT value.
	Int = value.Int
	// Float makes a FLOAT value.
	Float = value.Float
	// Str makes a TEXT value.
	Str = value.Str
	// Bool makes a BOOL value.
	Bool = value.Bool
	// Null makes the NULL value.
	Null = value.Null
	// MustSchema builds a schema or panics.
	MustSchema = value.MustSchema
	// NewSchema builds a schema.
	NewSchema = value.NewSchema
	// DiscardRows is the RowSink that keeps nothing: the statement runs
	// and its Result reports RowCount, statistics and the analyze report.
	DiscardRows = exec.Discard
)

// Model option re-exports.
type (
	// TreeOptions tunes decision-tree training.
	TreeOptions = dtree.Options
	// BayesOptions tunes naive Bayes training.
	BayesOptions = nbayes.Options
	// RuleOptions tunes rule-list training.
	RuleOptions = rules.Options
	// ClusterOptions tunes k-means and GMM training.
	ClusterOptions = cluster.Options
)

// Engine is an embedded minequery database. Queries may run from many
// goroutines at once: each execution carries its own I/O accounting
// (see ExecStats), so concurrent queries never pollute each other's
// statistics. Catalog mutations (CreateTable, training, CreateIndex)
// should still be serialized with respect to queries that touch the
// same objects. A single query may also fan out internally: sequential
// scans are morsel-driven and run on Exec.DOP workers.
type Engine struct {
	cat      *catalog.Catalog
	optCfg   opt.Config
	execOpts exec.Options
	envCache core.EnvelopeCache

	// metrics is the installed engine-metrics sink, nil until
	// RegisterMetrics.
	metrics atomic.Pointer[engineMetrics]

	// ---- write path (dml.go, wal.go) ----

	// writeMu serializes the whole write side: DML statements, CREATE
	// MODEL, write-volume retrains, and WAL replay. Readers never take
	// it — queries interleave freely with writes.
	writeMu sync.Mutex
	// wlog is the write-ahead log, nil until EnableWAL.
	wlog atomic.Pointer[wal.Log]
	// replaying, guarded by writeMu, suppresses re-logging while WAL
	// records are re-applied during EnableWAL.
	replaying bool
	// retrainThreshold is the write-volume retrain trigger (rows per
	// table); 0 disables automatic retraining.
	retrainThreshold atomic.Int64
	// modelDefs records every model's definition so retrains can re-run
	// it; defOrder keeps registration order deterministic.
	// writesSince counts rows written per table since its last retrain.
	// All three are guarded by writeMu.
	modelDefs   map[string]*modelDef
	defOrder    []string
	writesSince map[string]int64

	// standing is the standing-query engine (standing.go); the Exec
	// write path classifies every committed batch against it.
	standing *standing.Set
}

// Config tunes an Engine. The cost model and the envelope derivation
// are the engine's own: it plans with opt.DefaultConfig, whose DOP only
// SetDOP moves, and derives envelopes with core's defaults. SetFaults
// installs a fault injector.
type Config struct {
	// Exec tunes batch execution: scan parallelism (DOP), batch size,
	// morsel size, retries. Zero value: exec defaults (one scan worker
	// per CPU). Parallel scans reassemble morsels in heap order, so
	// results are identical at any DOP.
	Exec exec.Options
	// StandingQueue is the standing-query notification queue capacity.
	// When matches outrun the Notifications consumer, the overflow is
	// dropped and counted rather than blocking the write path. Zero
	// means the default (1024).
	StandingQueue int
}

// New returns an empty engine with default configuration.
func New() *Engine { return NewWithConfig(Config{}) }

// NewWithConfig returns an empty engine with explicit configuration.
func NewWithConfig(cfg Config) *Engine {
	if cfg.Exec == (exec.Options{}) {
		cfg.Exec = exec.DefaultOptions()
	}
	// Retry is on by default: the engine absorbs transient storage/seek
	// failures up to the default budget. Exec.Retry overrides; a policy
	// with MaxAttempts 1 means explicit no-retry.
	if cfg.Exec.Retry.MaxAttempts == 0 {
		cfg.Exec.Retry = DefaultRetryPolicy()
	}
	e := &Engine{
		cat: catalog.New(), optCfg: opt.DefaultConfig(), execOpts: cfg.Exec,
		modelDefs:   make(map[string]*modelDef),
		writesSince: make(map[string]int64),
	}
	e.standing = standing.NewSet(e.cat, standing.Options{Queue: cfg.StandingQueue})
	// Any catalog change that can invalidate cached plans can also change
	// what a compiled standing set means (retrains swap envelopes and
	// predictions; drops break subscriptions); recompile lazily on the
	// next committed batch, exactly like prepared-plan staleness.
	e.cat.OnInvalidate(func(catalog.InvalidationEvent) { e.standing.Invalidate() })
	return e
}

// SetDOP sets the degree of parallelism used by subsequent query
// execution and by the optimizer's scan costing. dop <= 0 resets to one
// worker per CPU.
func (e *Engine) SetDOP(dop int) {
	if dop <= 0 {
		e.execOpts.DOP = exec.DefaultOptions().DOP
	} else {
		e.execOpts.DOP = dop
	}
	e.optCfg.DOP = e.execOpts.DOP
}

// SetEnvelopeCache installs a cache memoizing class-set envelope
// assembly across queries (nil disables caching, the default). Cache
// keys embed model content fingerprints, so entries can never serve a
// stale envelope after a retrain — at worst they waste space. The cache
// must be safe for concurrent use if the engine is shared.
func (e *Engine) SetEnvelopeCache(c EnvelopeCache) {
	e.envCache = c
	// The standing-query compiler shares the cache: a guard's region is
	// the rewriter's entry for the same atom shape, model fingerprint and
	// class set, so a subscription and a query serve each other.
	e.standing.SetCache(c)
}

// OnInvalidate registers a callback for catalog changes that can
// invalidate cached plans: model registration/retrain/drop, index
// creation/drop, statistics refresh. Callbacks run synchronously on the
// mutating goroutine and must not call back into the catalog.
func (e *Engine) OnInvalidate(fn func(InvalidationEvent)) { e.cat.OnInvalidate(fn) }

// CatalogEpoch returns the catalog's monotonically increasing change
// counter; a prepared statement is valid while the epoch it was built
// at is still current.
func (e *Engine) CatalogEpoch() int64 { return e.cat.Epoch() }

// CreateTable registers an empty table.
func (e *Engine) CreateTable(name string, schema *Schema) error {
	_, err := e.cat.CreateTable(name, schema)
	return err
}

// CreatePartitionedTable registers an empty range-partitioned table.
// bounds are the ascending split points on partCol: n bounds make n+1
// partitions, partition i covering [bounds[i-1], bounds[i]) — lower
// bound inclusive, upper exclusive; NULLs route to partition 0. Inserts
// are routed automatically and queries run unchanged; the optimizer
// skips partitions whose bound interval cannot intersect the rewritten
// predicate (envelope ∧ data predicate), reported on Result as
// PartitionsTotal/PartitionsPruned and in EXPLAIN output.
func (e *Engine) CreatePartitionedTable(name string, schema *Schema, partCol string, bounds []Value) error {
	_, err := e.cat.CreatePartitionedTable(name, schema, partCol, bounds)
	return err
}

// Insert appends one row, as InsertBatch does.
func (e *Engine) Insert(table string, row Tuple) error { return e.InsertBatch(table, []Tuple{row}) }

// InsertBatch appends many rows. It is a bulk load, unlogged: once
// EnableWAL has attached a log it is refused, and rows go in through
// Exec INSERT.
func (e *Engine) InsertBatch(table string, rows []Tuple) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.refuseUnlogged("a bulk load (Insert, InsertBatch)", "use Exec INSERT, or load rows before EnableWAL"); err != nil {
		return err
	}
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, table)
	}
	for i, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return fmt.Errorf("minequery: row %d: %w", i, err)
		}
	}
	return nil
}

// CreateIndex builds a secondary index over existing rows.
func (e *Engine) CreateIndex(name, table string, columns ...string) error {
	_, err := e.cat.CreateIndex(name, table, columns...)
	return err
}

// DropIndexes removes all indexes from a table.
func (e *Engine) DropIndexes(table string) error { return e.cat.DropIndexes(table) }

// Analyze refreshes a table's optimizer statistics (and, for tables
// that opted in via EnableColumnar, rebuilds the columnar sidecar).
func (e *Engine) Analyze(table string) error {
	_, err := e.cat.Analyze(table)
	return err
}

// EnableColumnar opts a table into the column-group storage sidecar:
// rows are additionally kept as per-column typed vectors in fixed-size
// groups, and eligible sequential scans run the vectorized
// selection-vector pipeline with adaptive predicate-term ordering.
// Results are byte-identical to the row path at any DOP. The row heap
// remains the source of truth — inserts after the build make the
// sidecar stale and scans silently revert to the row path until the
// next Analyze (or EnableColumnar) rebuilds it.
func (e *Engine) EnableColumnar(table string) error {
	if err := e.cat.EnableColumnar(table); err != nil {
		return fmt.Errorf("minequery: %w", err)
	}
	return nil
}

// DropModel removes a model and its definition, so no threshold retrain
// makes it again. Prepared statements that reference it go stale;
// in-flight queries finish against the model snapshot they captured.
// Refused once EnableWAL has attached a log: no log record carries a drop.
func (e *Engine) DropModel(name string) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.refuseUnlogged("DropModel", "drop models before EnableWAL"); err != nil {
		return err
	}
	if err := e.cat.DropModel(name); err != nil {
		return err
	}
	e.forgetModelDef(name)
	return nil
}

// RowCount returns a table's live row count.
func (e *Engine) RowCount(table string) (int64, error) {
	t, ok := e.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, table)
	}
	return t.Heap.Len(), nil
}

// ModelInfo reports the outcome of training or registering a model.
type ModelInfo struct {
	Name string
	// Classes enumerates the model's class labels.
	Classes []Value
	// TrainTime is the inducer's wall time. Naive Bayes counts its rows
	// while the training scan runs, so its TrainTime includes the scan;
	// every other family's starts when the scan has ended.
	TrainTime time.Duration
	// EnvelopeTime is the upper-envelope precomputation wall time (the
	// Section 5 overhead metric: it should be a small fraction of
	// TrainTime).
	EnvelopeTime time.Duration
	// ExactEnvelopes reports whether the envelopes are exact.
	ExactEnvelopes bool
	// Version is the catalog model version.
	Version int64
}

// buildTrainColumns extracts (inputs, labels) from a relational view of
// a stored table as train columns: rows failing where (when non-nil) are
// excluded from training.
func (e *Engine) buildTrainColumns(table string, inputCols []string, labelCol string, where expr.Expr) (*mining.Columns, error) {
	var s columnSink
	if err := e.drainTrainView(table, inputCols, labelCol, where, &s); err != nil {
		return nil, err
	}
	return s.cs, nil
}

// drainTrainView runs the relational view training reads — table's
// inputCols and labelCol over the rows passing where — as the plan
// trainView builds, into sink.
func (e *Engine) drainTrainView(table string, inputCols []string, labelCol string, where expr.Expr, sink trainSink) error {
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, table)
	}
	view, schema, labelAt, err := trainView(t, inputCols, labelCol, where)
	if err != nil {
		return err
	}
	sink.open(schema, labelAt, t.Heap.Len())
	if _, err := exec.Drain(context.Background(), e.cat, view, exec.Options{}, sink); err != nil {
		return fmt.Errorf("minequery: train scan of %s: %w", table, err)
	}
	return nil
}

// trainSink is where a training view's rows go: told the view's input
// schema, where the label sits in a row (-1 without one) and how many
// rows the table holds before the scan starts. A row's first
// schema.Len() values are its inputs.
type trainSink interface {
	exec.RowSink
	open(schema *value.Schema, labelAt int, tableRows int64)
}

// trainRows is the shape of a training view's rows.
type trainRows struct{ n, labelAt int }

func (r trainRows) label(row value.Tuple) value.Value {
	if r.labelAt < 0 {
		return value.Null()
	}
	return row[r.labelAt]
}

// columnSink keeps a view's rows as train columns, sized from the
// table's row count: each input goes into its attribute's column and each
// label becomes a class id, so no row is kept as a tuple.
type columnSink struct {
	trainRows
	schema *value.Schema
	rows   int
	cs     *mining.Columns
}

func (s *columnSink) open(schema *value.Schema, labelAt int, tableRows int64) {
	s.trainRows = trainRows{n: schema.Len(), labelAt: labelAt}
	s.schema, s.rows = schema, int(tableRows)
}

func (s *columnSink) Begin() { s.cs = mining.NewColumns(s.schema, s.rows) }

func (s *columnSink) Batch(b exec.Batch) error {
	for _, row := range b {
		if err := s.cs.Append(row, s.label(row)); err != nil {
			return err
		}
	}
	return nil
}

// bayesSink trains naive Bayes as the view drains: the model is a table
// of counts, so no row is kept.
type bayesSink struct {
	trainRows
	cols   []string
	counts *nbayes.Counts
}

func (s *bayesSink) open(schema *value.Schema, labelAt int, _ int64) {
	s.trainRows = trainRows{n: schema.Len(), labelAt: labelAt}
	s.cols = make([]string, s.n)
	for i := range s.cols {
		s.cols[i] = schema.Col(i).Name
	}
}

func (s *bayesSink) Begin() { s.counts = nbayes.NewCounts(s.n) }

func (s *bayesSink) Batch(b exec.Batch) error {
	for _, row := range b {
		s.counts.Add(row[:s.n], s.label(row))
	}
	return nil
}

// trainView is the plan a relational view for training runs, and the
// one EXPLAIN CREATE MODEL shows: Project(inputs, label) over
// Filter(where) over a sequential scan of t, so the executor's one page
// reader decodes the columns those name and no others. It also returns
// the inputs' schema and where the label sits in a projected row (-1
// without one).
func trainView(t *catalog.Table, inputCols []string, labelCol string, where expr.Expr) (plan.Node, *value.Schema, int, error) {
	cols := make([]Column, len(inputCols))
	project := append(make([]string, 0, len(inputCols)+1), inputCols...)
	labelOrd, labelAt := -1, -1 // the label's place in the table, and in a projected row
	if labelCol != "" {
		labelOrd = t.Schema.Ordinal(labelCol)
	}
	for i, c := range inputCols {
		o := t.Schema.Ordinal(c)
		if o < 0 {
			return nil, nil, 0, fmt.Errorf("minequery: no column %q in %s", c, t.Name)
		}
		cols[i] = t.Schema.Col(o)
		if o == labelOrd {
			labelAt = i
		}
	}
	if labelCol != "" && labelAt < 0 {
		if labelOrd < 0 {
			return nil, nil, 0, fmt.Errorf("minequery: no label column %q in %s", labelCol, t.Name)
		}
		labelAt, project = len(project), append(project, labelCol)
	}
	schema, err := value.NewSchema(cols...)
	if err != nil {
		return nil, nil, 0, err
	}
	return &plan.Project{Child: scanPlan(t.Name, where), Cols: project}, schema, labelAt, nil
}

// registerDerived installs a model whose envelopes were already derived.
// It cannot fail (see createModelLocked).
func (e *Engine) registerDerived(m mining.Model, der *core.Derivation, trainTime time.Duration) *ModelInfo {
	me := e.cat.RegisterModel(m, der.Envelopes)
	return &ModelInfo{
		Name:           m.Name(),
		Classes:        m.Classes(),
		TrainTime:      trainTime,
		EnvelopeTime:   der.Elapsed,
		ExactEnvelopes: der.Exact,
		Version:        me.Version,
	}
}

// TrainDecisionTree trains a decision tree over table data and
// precomputes its (exact) envelopes. Every Train* call records the
// model's definition, as CREATE MODEL does, which a threshold retrain
// (SetRetrainPolicy) re-runs over current data. Once EnableWAL has
// attached a log, Train* is refused: use Exec CREATE MODEL.
func (e *Engine) TrainDecisionTree(name, predCol, table string, inputCols []string, labelCol string, opts TreeOptions) (*ModelInfo, error) {
	return e.train("TrainDecisionTree", &modelDef{name: name, table: table, family: "dtree", predict: predCol, label: labelCol, feats: inputCols, opts: opts})
}

// TrainNaiveBayes trains a discrete naive Bayes model over table data
// and precomputes its envelopes with the top-down algorithm. See
// TrainDecisionTree for retrains and the WAL.
func (e *Engine) TrainNaiveBayes(name, predCol, table string, inputCols []string, labelCol string, opts BayesOptions) (*ModelInfo, error) {
	return e.train("TrainNaiveBayes", &modelDef{name: name, table: table, family: "nbayes", predict: predCol, label: labelCol, feats: inputCols, opts: opts})
}

// TrainRules trains a sequential-covering rule list over table data.
// See TrainDecisionTree for retrains and the WAL.
func (e *Engine) TrainRules(name, predCol, table string, inputCols []string, labelCol string, opts RuleOptions) (*ModelInfo, error) {
	return e.train("TrainRules", &modelDef{name: name, table: table, family: "rules", predict: predCol, label: labelCol, feats: inputCols, opts: opts})
}

// TrainKMeans trains a k-means clustering over numeric table columns.
// See TrainDecisionTree for retrains and the WAL.
func (e *Engine) TrainKMeans(name, predCol, table string, inputCols []string, opts ClusterOptions) (*ModelInfo, error) {
	return e.train("TrainKMeans", &modelDef{name: name, table: table, family: "kmeans", predict: predCol, feats: inputCols, opts: opts})
}

// TrainGMM trains a diagonal-Gaussian mixture clustering. See
// TrainDecisionTree for retrains and the WAL.
func (e *Engine) TrainGMM(name, predCol, table string, inputCols []string, opts ClusterOptions) (*ModelInfo, error) {
	return e.train("TrainGMM", &modelDef{name: name, table: table, family: "gmm", predict: predCol, feats: inputCols, opts: opts})
}

// train makes the model d defines through the door CREATE MODEL uses,
// less the log record.
func (e *Engine) train(call string, d *modelDef) (*ModelInfo, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.refuseUnlogged(call, "use Exec CREATE MODEL, or train before EnableWAL"); err != nil {
		return nil, err
	}
	d.feats = slices.Clone(d.feats) // a retrain must not see the caller's later edits
	return e.createModelLocked(d, false)
}

// RegisterModel registers an externally built model (e.g. assembled
// via nbayes.FromParameters or dtree.FromParts), deriving envelopes.
// It replaces, and forgets the definition of, any model of that name:
// no threshold retrain overwrites an external model. Once EnableWAL
// has attached a log, RegisterModel is refused.
func (e *Engine) RegisterModel(m Model) (*ModelInfo, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.refuseUnlogged("RegisterModel", "register models before EnableWAL"); err != nil {
		return nil, err
	}
	der, err := core.UpperEnvelopes(m, core.Options{})
	if err != nil {
		return nil, err
	}
	e.forgetModelDef(m.Name())
	return e.registerDerived(m, der, 0), nil
}

// Envelope returns the cached upper-envelope predicate for a model
// class.
func (e *Engine) Envelope(model string, class Value) (Expr, bool) {
	me, ok := e.cat.Model(model)
	if !ok {
		return nil, false
	}
	env, _, ok := me.Envelope(class)
	return env, ok
}

// ExecStats reports the measured cost of one query execution.
type ExecStats struct {
	// Duration is wall-clock time.
	Duration time.Duration
	// SeqPageReads/RandPageReads/TupleReads are storage-level counters.
	SeqPageReads  int64
	RandPageReads int64
	TupleReads    int64
	// CostUnits combines the counters with the optimizer's cost weights:
	// the simulated "running time" the experiments report.
	CostUnits float64
}

// ColumnMeta describes one output column of a Result: its name, value
// kind, and provenance — "projected" for a base-table or predicted
// column carried through to the output, "aggregate" for a computed
// aggregate (COUNT/SUM/MIN/MAX/AVG). It is the self-describing schema
// the server's wire format and the cluster coordinator carry alongside
// rows, so clients never have to re-derive types from the query text.
type ColumnMeta struct {
	Name   string
	Kind   Kind
	Source string
}

// Column sources.
const (
	// SourceProjected marks a column read (or predicted) from the input
	// and carried to the output unchanged.
	SourceProjected = "projected"
	// SourceAggregate marks a column computed by an aggregate function.
	SourceAggregate = "aggregate"
)

// AggWire is the order-independent wire form of a partial aggregate
// state (see WithPartialAggs): per-group accumulator payloads that a
// coordinator merges across peers — in any order — and finalizes once.
type AggWire = agg.Wire

// AggSpec is a resolved aggregation (group-by columns plus select
// items bound to the input schema). A PlanOutline carries one for
// aggregate statements so a distribution layer can rebuild the
// merge/finalize state without re-planning.
type AggSpec = agg.Spec

// Result is a completed query.
type Result struct {
	// Columns describes the output columns in order; see ColumnNames for
	// just the names.
	Columns []ColumnMeta
	// Rows holds the output tuples. It is nil when the caller supplied
	// its own RowSink (ExecuteInto): the rows went there, and only there.
	Rows []Tuple
	// RowCount is the number of rows the statement returned, whoever
	// consumed them (0 in partial-aggregate mode, which returns state).
	RowCount int
	// Plan is the executed physical plan (Explain form).
	Plan string
	// AccessPath classifies how the base table was read.
	AccessPath string
	// PlanChanged reports the paper's plan-change condition: the
	// optimizer chose an index or a constant scan instead of a full
	// sequential scan.
	PlanChanged bool
	// EstSelectivity is the optimizer's selectivity estimate for the
	// data predicate.
	EstSelectivity float64
	// RewriteNotes documents the envelope rewrites applied.
	RewriteNotes []string
	// Stats is the measured execution cost.
	Stats ExecStats
	// Analyze is the per-operator runtime report as Execute and Query
	// return it: Report(), taken before they return. ExecuteInto leaves
	// it nil; a caller that streams the rows calls Report() if it wants
	// the report.
	Analyze *AnalyzeReport
	// Fallback reports that the optimized index path failed with a
	// transient error and the query was re-run on the always-sound
	// filtered sequential scan. The rows are identical to what the
	// index path would have returned; only the access cost changed.
	Fallback bool
	// FallbackReason is the transient error that triggered the
	// fallback ("" when Fallback is false).
	FallbackReason string
	// Retries counts transient storage/seek failures absorbed by the
	// retry layer during this execution.
	Retries int64
	// PartitionsTotal is the queried table's partition count (0 for
	// unpartitioned tables); PartitionsPruned is how many of them the
	// optimizer proved disjoint from the rewritten predicate and
	// skipped.
	PartitionsTotal  int
	PartitionsPruned int
	// StorageFormat reports how the base table was actually read:
	// "columnar" when the scan ran on the column-group sidecar, "row"
	// for the heap path (a columnar-flagged plan silently falls back to
	// the row path whenever the sidecar is stale).
	StorageFormat string
	// PartialAgg carries the un-finalized aggregate state when the query
	// ran in partial-aggregate mode (WithPartialAggs): Rows is nil, and
	// this payload is what a coordinator merges across shards before
	// finalizing once. Nil in normal executions.
	PartialAgg *AggWire

	// actuals is what Report builds the report from; nil on a Result
	// that no execution made.
	actuals *runActuals
}

// runActuals is what one execution keeps for its report: the executed
// tree, the collector that measured it, and the inputs of the estimates
// the report prints next to the actuals.
type runActuals struct {
	root        plan.Node
	col         *exec.Collector
	rowCount    int64 // the table's rows when the execution ended
	dop         int
	attribution bool

	once   sync.Once
	report *AnalyzeReport
}

// Report returns the per-operator runtime report: estimated vs actual
// rows, wall time, leaf I/O and envelope-pruning attribution. It is
// built from the execution's own collector on the first call and kept,
// so an execution whose report nobody reads renders no operator text.
// At DOP > 1 under a LIMIT, the worker lines read the workers' counters
// at that first call: a parallel scan stopped early does not wait for
// its workers (orderedScan.Close does not join them), so a worker may
// still be counting the morsel it was reading. Report returns nil on a
// Result that no execution made.
func (r *Result) Report() *AnalyzeReport {
	a := r.actuals
	if a == nil {
		return nil
	}
	a.once.Do(func() { a.report = buildAnalyzeReport(r) })
	return a.report
}

// ColumnNames returns the output column names, in order.
func (r *Result) ColumnNames() []string {
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	return names
}

// Query parses, rewrites (adding upper envelopes), optimizes, and runs
// a SELECT. Options tune the one call:
//
//	WithBaseline()      evaluate mining predicates as black-box filters
//	WithDOP(n)          override scan parallelism for this call
//	WithForcedPath(p)   pin the access path ("seqscan")
//	WithAnalyze()       attribute filter rejections to envelope vs residual
//	WithPartialAggs()   return the partial aggregate state instead of rows
//
// Cancellation: when ctx is cancelled or its deadline passes, execution
// stops between batches and the returned error matches context.Canceled
// or context.DeadlineExceeded via errors.Is.
func (e *Engine) Query(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	qc, err := buildQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	p, err := e.compile(sql, qc)
	if err != nil {
		return nil, err
	}
	return p.collect(ctx, qc)
}

// ExplainAnalyze runs the query with envelope attribution enabled and
// returns the rendered per-operator report: estimated vs actual rows,
// batches, wall time, leaf I/O, and — for filters — how many rejected
// rows the added envelope pruned vs the query's own (residual)
// predicate. The query's full Result (rows included) is returned
// alongside; its Report method returns the structured report.
func (e *Engine) ExplainAnalyze(ctx context.Context, sql string, opts ...QueryOption) (string, *Result, error) {
	res, err := e.Query(ctx, sql, append(opts, WithAnalyze())...)
	if err != nil {
		return "", nil, err
	}
	return res.Report().Render(false), res, nil
}

// validateAggregate checks an aggregate query's shape at plan time, so
// unsupported forms fail with ErrUnsupportedQuery before any execution
// state is built. Non-aggregate queries pass through untouched.
func (e *Engine) validateAggregate(q *sqlparse.Query, t *catalog.Table) error {
	if !q.Grouped() {
		return nil
	}
	if len(q.Items) == 0 {
		return fmt.Errorf("minequery: %w: SELECT * cannot be combined with GROUP BY or aggregates", qerr.ErrUnsupportedQuery)
	}
	for _, it := range q.Items {
		if it.Agg == "" {
			continue
		}
		if _, ok := agg.FuncByName(it.Agg); !ok {
			return fmt.Errorf("minequery: %w: unknown aggregate function %q", qerr.ErrUnsupportedQuery, it.Agg)
		}
	}
	sch, err := core.PostPredictSchema(q, e.cat, t.Schema)
	if err != nil {
		return err
	}
	spec, err := agg.Resolve(sch, q.GroupBy, aggItems(q))
	if err != nil {
		return fmt.Errorf("minequery: %w: %v", qerr.ErrUnsupportedQuery, err)
	}
	// The output schema cannot carry duplicate column names, so a
	// repeated select item ("sum(x), sum(x)") is rejected here rather
	// than as an opaque schema error mid-execution.
	if _, err := spec.OutSchema(); err != nil {
		return fmt.Errorf("minequery: %w: %v", qerr.ErrUnsupportedQuery, err)
	}
	return nil
}

// aggItems converts the parsed select list to agg items. Function names
// were validated by validateAggregate, so lookup failures cannot reach
// execution (an unknown name maps to None, which Resolve then rejects).
func aggItems(q *sqlparse.Query) []agg.Item {
	items := make([]agg.Item, 0, len(q.Items))
	for _, it := range q.Items {
		f, _ := agg.FuncByName(it.Agg)
		items = append(items, agg.Item{Func: f, Col: it.Col, Star: it.Star})
	}
	return items
}

// executePlan runs the statement's physical plan and packages the
// Result. analyzeBase, when non-nil, enables envelope-vs-residual
// rejection attribution on the scan-level filter (the WithAnalyze path).
//
// Graceful degradation: when the optimized (index-path) plan fails with
// a transient error that survived the retry layer, and the statement has
// a fallback (and the call did not disable it), the query is re-run once
// on the fallback — the always-sound filtered sequential scan pipeline.
// The fallback returns exactly the rows the optimized plan would have
// (index paths only overscan and re-filter), so degradation can never
// change an answer; the switch is recorded on the Result (Fallback,
// FallbackReason, a rewrite note) and in the minequery_fallbacks_total
// metric. A dead context is never retried: cancellation/deadline errors
// surface as-is. The failed attempt may have delivered rows to sink
// before it failed (an index path fails one fetch at a time); the re-run
// is a new attempt, whose Begin voids them.
func (p *Prepared) executePlan(ctx context.Context, execOpts exec.Options, analyzeBase expr.Expr, qc queryConfig, sink RowSink) (*Result, error) {
	r, err := p.runPlanOnce(ctx, p.root, execOpts, analyzeBase, qc.partialAggs, sink)
	if err == nil || p.fallback == nil || qc.noFallback || !errors.Is(err, qerr.ErrTransient) || ctx.Err() != nil {
		return r, err
	}
	reason := err.Error()
	fr, ferr := p.runPlanOnce(ctx, p.fallback, execOpts, analyzeBase, qc.partialAggs, sink)
	if ferr != nil {
		// The degraded path failed too; surface the original failure,
		// which names the index path the query actually chose.
		return nil, fmt.Errorf("minequery: fallback scan also failed (%v) after: %w", ferr, err)
	}
	fr.Fallback = true
	fr.FallbackReason = reason
	fr.RewriteNotes = append(fr.RewriteNotes[:len(fr.RewriteNotes):len(fr.RewriteNotes)],
		"fallback: index path failed transiently; re-ran baseline sequential scan")
	p.eng.metrics.Load().fallback()
	return fr, nil
}

// meteredSink is what runPlanOnce puts between the plan and the caller's
// sink: it counts the attempt's rows, and the time the sink spends on
// them — the caller's time, not the plan's.
type meteredSink struct {
	sink  RowSink
	rows  int
	spent time.Duration
}

func (m *meteredSink) Begin() { m.sink.Begin() }

func (m *meteredSink) Batch(b exec.Batch) error {
	start := time.Now()
	err := m.sink.Batch(b)
	m.spent += time.Since(start)
	m.rows += len(b)
	return err
}

// runPlanOnce executes one plan tree — the statement's root or its
// fallback — into sink and packages the Result; it is the single-attempt
// core under executePlan's degradation wrapper. Stats.Duration is the
// plan's: what the sink took to consume the rows is left out of it.
func (p *Prepared) runPlanOnce(ctx context.Context, root plan.Node, execOpts exec.Options, analyzeBase expr.Expr, partial bool, sink RowSink) (*Result, error) {
	e, res := p.eng, p.optRes
	col := exec.NewCollector()
	execOpts.Collector = col
	if analyzeBase != nil {
		// The baseline widens the scan's decode mask: the run binds the
		// tree afresh (exec.Bound).
		if lf := scanLevelFilter(root); lf != nil {
			col.SetEnvelopeBaseline(lf, analyzeBase)
		}
	}
	start := time.Now()
	var (
		schema *value.Schema
		wire   *agg.Wire
	)
	out := meteredSink{sink: sink}
	b, err := p.boundOf(root)
	switch {
	case err != nil:
	case partial:
		// Partial-aggregate mode: run only the Partial producer and
		// return its un-finalized state for a coordinator to merge. run
		// admitted only aggregate statements, whose plans always carry
		// the Partial/Final pair.
		var tab *agg.Table
		sink.Begin() // an attempt like any other, though no rows will follow
		tab, err = b.RunPartialAgg(ctx, partialAggOf(root), execOpts)
		if err == nil {
			wire = tab.EncodeWire()
			// Columns still describe the merged-and-finalized output — the
			// root's, bound once — so a partial Result is self-describing
			// for the gathering side too.
			schema = b.Schema()
		}
	default:
		schema, err = b.Drain(ctx, execOpts, &out)
	}
	elapsed := time.Since(start) - out.spent
	// Count retries even when the attempt ultimately failed: the
	// metric tracks transient-failure pressure, not just survivals.
	retries := col.Retries.Load()
	e.metrics.Load().retries(retries)
	if err != nil {
		return nil, err
	}
	io := col.IO.Snapshot()
	st := ExecStats{
		Duration:      elapsed,
		SeqPageReads:  io.SeqPageReads,
		RandPageReads: io.RandPageReads,
		TupleReads:    io.TupleReads,
		CostUnits:     e.optCfg.Cost(io),
	}
	fin := finalAggOf(root)
	cols := make([]ColumnMeta, schema.Len())
	for i := range cols {
		c := schema.Col(i)
		cols[i] = ColumnMeta{Name: c.Name, Kind: c.Kind, Source: SourceProjected}
		if fin != nil && i < len(fin.Aggs) && fin.Aggs[i].Func != agg.None {
			cols[i].Source = SourceAggregate
		}
	}
	r := &Result{
		Columns:          cols,
		RowCount:         out.rows,
		Plan:             p.planTextOf(root),
		AccessPath:       plan.PathOf(root).String(),
		PlanChanged:      plan.Changed(root),
		EstSelectivity:   res.EstSelectivity,
		RewriteNotes:     p.rewrite.Notes,
		Stats:            st,
		Retries:          retries,
		PartitionsTotal:  res.PartsTotal,
		PartitionsPruned: res.PartsPruned,
		PartialAgg:       wire,
		StorageFormat:    "row",
		actuals: &runActuals{
			root:        root,
			col:         col,
			rowCount:    p.table.Heap.Len(),
			dop:         execOpts.DOP,
			attribution: analyzeBase != nil,
		},
	}
	if info := columnarScanInfo(root, col); info != nil {
		r.StorageFormat = "columnar"
		e.metrics.Load().columnar(info)
	}
	em := e.metrics.Load()
	em.stage("execute", elapsed)
	em.query(r.AccessPath, st.TupleReads, int64(out.rows))
	em.partitions(res.PartsTotal, res.PartsPruned)
	em.agg(fin != nil, col.AggMerges.Load())
	return r, nil
}

// finalAggOf returns the plan's final-phase HashAgg — it sits at the
// root or directly under a Limit — or nil for non-aggregate plans.
func finalAggOf(n plan.Node) *plan.HashAgg {
	switch x := n.(type) {
	case *plan.HashAgg:
		if x.Phase == plan.AggFinal {
			return x
		}
	case *plan.Limit:
		return finalAggOf(x.Child)
	}
	return nil
}

// partialAggOf returns the partial-phase HashAgg feeding the plan's
// final aggregate, or nil for non-aggregate plans.
func partialAggOf(n plan.Node) *plan.HashAgg {
	fin := finalAggOf(n)
	if fin == nil {
		return nil
	}
	part, _ := fin.Child.(*plan.HashAgg)
	return part
}

// columnarScanInfo returns the columnar actuals of the plan's scan leaf,
// or nil when the scan executed on the row path.
func columnarScanInfo(n plan.Node, col *exec.Collector) *exec.VecScanInfo {
	if s, ok := n.(*plan.SeqScan); ok {
		return col.VecInfo(s)
	}
	for _, c := range n.Children() {
		if info := columnarScanInfo(c, col); info != nil {
			return info
		}
	}
	return nil
}

// scanLevelFilter finds the filter applied at the access path — the
// lowest Filter, sitting directly on a scan leaf — which is where
// envelope augmentation lands and therefore where rejection attribution
// is meaningful.
func scanLevelFilter(n plan.Node) *plan.Filter {
	if f, ok := n.(*plan.Filter); ok {
		switch f.Child.(type) {
		case *plan.SeqScan, *plan.IndexSeek, *plan.IndexUnion, *plan.ConstScan:
			return f
		}
	}
	for _, c := range n.Children() {
		if f := scanLevelFilter(c); f != nil {
			return f
		}
	}
	return nil
}

// buildPlan assembles the physical plan: access path for the data
// predicate, prediction joins, post-prediction filter, projection,
// limit. forceSeq pins the access path to a filtered sequential scan
// (the optimizer still runs, for its selectivity estimate).
//
// When the optimizer picks an index path, a second, independent plan
// tree — the same pipeline over the always-sound filtered sequential
// scan — is returned as the fallback. The fallback returns exactly the
// rows the optimized plan returns (index paths only ever overscan and
// re-filter), so the engine can re-run a query on it after a transient
// index-path failure without ever changing the answer. It is nil when
// the chosen path is already a scan (nothing cheaper to fall back to).
func (e *Engine) buildPlan(q *sqlparse.Query, t *catalog.Table, rw *core.Rewrite, forceSeq bool) (root, fallback plan.Node, res opt.Result) {
	res = opt.ChooseAccessPath(t, rw.DataPred, e.optCfg)
	access := res.Plan
	if forceSeq {
		// ScanPlan filters by DataPred as Simplify leaves it, and the
		// rewriter's DataPred is already a Simplify fixed point. The
		// forced scan reads every partition, so the Result (and the
		// pruning metrics) must not claim the optimizer's skips.
		access = res.ScanPlan
		res.PartsPruned = 0
		res.Partitions = nil
	}
	root = e.finishPlan(q, rw, access)
	if !forceSeq && res.ScanPlan != nil &&
		(res.Path == plan.AccessIndex || res.Path == plan.AccessIndexUnion) {
		fallback = e.finishPlan(q, rw, res.ScanPlan)
	}
	return root, fallback, res
}

// finishPlan wraps an access-path subtree with the query's prediction
// joins, post-prediction filter, and then either the aggregation pair
// (partial below final, replacing the projection: the select-list order
// lives in the aggregate items) or the projection, and the limit. Each
// call builds fresh operator nodes, so the optimized root and its
// fallback never share nodes (per-node runtime stats stay separable).
func (e *Engine) finishPlan(q *sqlparse.Query, rw *core.Rewrite, root plan.Node) plan.Node {
	for _, j := range q.Joins {
		me, ok := e.cat.Model(j.Model)
		if !ok {
			continue // caught earlier by the rewriter
		}
		root = &plan.Predict{
			Child:   root,
			Model:   j.Model,
			As:      me.PredictionColumn(j.Alias).Name,
			Version: rw.ModelVersions[strings.ToLower(j.Model)],
		}
	}
	if needsPostFilter(rw) {
		root = &plan.Filter{Child: root, Pred: rw.FullPred}
	}
	if q.Grouped() {
		items := aggItems(q)
		root = &plan.HashAgg{
			Child:   &plan.HashAgg{Child: root, Phase: plan.AggPartial, GroupBy: q.GroupBy, Aggs: items},
			Phase:   plan.AggFinal,
			GroupBy: q.GroupBy,
			Aggs:    items,
		}
	} else if len(q.Select) > 0 {
		root = &plan.Project{Child: root, Cols: q.Select}
	}
	if q.Limit >= 0 {
		root = &plan.Limit{Child: root, N: q.Limit}
	}
	return root
}

// needsPostFilter reports whether FullPred adds constraints beyond
// DataPred (i.e., it references prediction columns).
func needsPostFilter(rw *core.Rewrite) bool {
	if _, isTrue := rw.FullPred.(expr.TrueExpr); isTrue {
		return false
	}
	return !expr.Same(rw.FullPred, rw.DataPred)
}

// Explain returns the physical plan and rewrite notes for a query
// without executing it. Write statements (INSERT/UPDATE/DELETE, CREATE
// MODEL) explain as Mutation-rooted plans without touching any data.
func (e *Engine) Explain(sql string) (string, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return "", fmt.Errorf("minequery: %w", err)
	}
	if st.Kind != sqlparse.StmtSelect {
		return e.explainStatement(st)
	}
	p, err := e.front(sql, st.Select, false)
	if err != nil {
		return "", err
	}
	root, _, _ := e.buildPlan(p.query, p.table, p.rewrite, false)
	var b strings.Builder
	b.WriteString(plan.Explain(root))
	if len(p.rewrite.Notes) > 0 {
		b.WriteString("rewrites:\n")
		for _, n := range p.rewrite.Notes {
			b.WriteString("  " + n + "\n")
		}
	}
	return b.String(), nil
}

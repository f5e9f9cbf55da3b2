package minequery

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/opt"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
)

// ErrStalePlan reports that a prepared statement's cached plan was
// built against a catalog state that has since changed (model retrained
// or dropped, index created or dropped, statistics refreshed). The
// caller should re-prepare; results from the stale plan were never
// produced.
var ErrStalePlan = errors.New("minequery: prepared plan is stale, re-prepare")

// Prepared is a parsed, rewritten, and optimized statement whose plan
// can be executed repeatedly without re-deriving envelopes or re-running
// the optimizer. Its plan trees are immutable after Prepare, and it is
// safe for concurrent Execute calls (subject to the Engine's own
// concurrency caveats).
type Prepared struct {
	eng     *Engine
	sql     string
	query   *sqlparse.Query
	rewrite *core.Rewrite
	table   *catalog.Table
	root    plan.Node
	// fallback is the always-sound filtered-seqscan variant of root,
	// cached at prepare time so degraded executions skip re-planning;
	// nil when root is already a scan path.
	fallback plan.Node
	optRes   opt.Result
	epoch    int64
	// rootKept and fallbackKept hold what each of the two trees derives
	// for an execution, once it is asked for a second time.
	rootKept, fallbackKept treeKept
}

// treeKept is what an execution derives from one immutable plan tree and
// nothing else: its Explain text and its exec.Bound.
type treeKept struct {
	text  kept[string]
	bound kept[exec.Bound]
}

// kept is one value derived from an immutable plan tree, made afresh on
// the tree's first request and kept from its second on: a statement that
// runs once retains nothing, one that runs again derives no more.
type kept[T any] struct {
	requests atomic.Int32
	v        atomic.Pointer[T]
}

// get returns the kept value, or what derive returns: kept when this is
// the second request or a later one.
func (k *kept[T]) get(derive func() (*T, error)) (*T, error) {
	if v := k.v.Load(); v != nil {
		return v, nil
	}
	v, err := derive()
	if err != nil || k.requests.Add(1) < 2 {
		return v, err
	}
	// Concurrent second requests agree on one kept value.
	k.v.CompareAndSwap(nil, v)
	return k.v.Load(), nil
}

// keptOf returns what is kept for one of the statement's trees: its root
// or its fallback.
func (p *Prepared) keptOf(root plan.Node) *treeKept {
	if root == p.fallback {
		return &p.fallbackKept
	}
	return &p.rootKept
}

// planTextOf returns the Explain text of one of the statement's trees.
func (p *Prepared) planTextOf(root plan.Node) string {
	s, _ := p.keptOf(root).text.get(func() (*string, error) {
		s := plan.Explain(root)
		return &s, nil
	})
	return *s
}

// boundOf returns the exec.Bound of one of the statement's trees.
func (p *Prepared) boundOf(root plan.Node) (*exec.Bound, error) {
	return p.keptOf(root).bound.get(func() (*exec.Bound, error) { return exec.Bind(p.eng.cat, root) })
}

// Prepare parses, rewrites, and optimizes a SELECT once, returning a
// statement handle that executes the cached plan. Plan-shaping options
// (WithForcedPath, WithBaseline) are honored here; execution options
// (WithDOP, WithAnalyze, WithNoFallback, WithPartialAggs) belong on
// Execute and are ignored at prepare time.
func (e *Engine) Prepare(sql string, opts ...QueryOption) (*Prepared, error) {
	qc, err := buildQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	return e.compile(sql, qc)
}

// compile is the one read-path pipeline: front half, then access-path
// choice and plan assembly under qc's plan-shaping options. Prepare
// returns its result; ad-hoc Query runs it once and drops it.
func (e *Engine) compile(sql string, qc queryConfig) (*Prepared, error) {
	p, err := e.front(sql, nil, qc.baseline)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.root, p.fallback, p.optRes = e.buildPlan(p.query, p.table, p.rewrite, qc.forcedPath == "seqscan")
	e.metrics.Load().stage("optimize", time.Since(start))
	return p, nil
}

// front is the plan-independent front half of compile, shared with
// Outline and Explain: epoch snapshot → parse → table lookup →
// validateAggregate → rewrite (baseline, or envelopes through the
// cache). The statement it returns has no physical plan yet. q, when
// non-nil, is sql already parsed (Explain parses first to dispatch on
// the statement kind) and the parse is skipped.
func (e *Engine) front(sql string, q *sqlparse.Query, baseline bool) (*Prepared, error) {
	// Snapshot the epoch before reading any catalog state: if the
	// catalog changes while we plan, the statement is born stale rather
	// than silently half-new.
	epoch := e.cat.Epoch()
	em := e.metrics.Load()
	if q == nil {
		start := time.Now()
		var err error
		if q, err = sqlparse.Parse(sql); err != nil {
			return nil, err
		}
		em.stage("parse", time.Since(start))
	}
	t, ok := e.cat.Table(q.Table)
	if !ok {
		return nil, fmt.Errorf("minequery: %w %q", qerr.ErrUnknownTable, q.Table)
	}
	if err := e.validateAggregate(q, t); err != nil {
		return nil, err
	}
	start := time.Now()
	var rw *core.Rewrite
	var err error
	if baseline {
		rw, err = core.BaselineRewrite(q, e.cat, e.optCfg.MaxDisjuncts)
	} else {
		rw, err = core.RewriteQueryCached(q, e.cat, e.optCfg.MaxDisjuncts, e.envCache)
	}
	if err != nil {
		return nil, err
	}
	em.stage("rewrite", time.Since(start))
	return &Prepared{eng: e, sql: sql, query: q, rewrite: rw, table: t, epoch: epoch}, nil
}

// SQL returns the statement text as prepared.
func (p *Prepared) SQL() string { return p.sql }

// Plan returns the cached physical plan in Explain form.
func (p *Prepared) Plan() string { return p.planTextOf(p.root) }

// AccessPath reports how the cached plan reads the base table.
func (p *Prepared) AccessPath() string { return plan.PathOf(p.root).String() }

// Epoch returns the catalog epoch the plan was built at.
func (p *Prepared) Epoch() int64 { return p.epoch }

// Valid reports whether the cached plan is still current: no model,
// index, or statistics change has occurred since Prepare.
func (p *Prepared) Valid() bool { return p.epoch == p.eng.cat.Epoch() }

// References returns the table and model names the statement depends
// on (model names lowercased, in join order).
func (p *Prepared) References() (table string, models []string) {
	models = make([]string, 0, len(p.query.Joins))
	for _, j := range p.query.Joins {
		models = append(models, strings.ToLower(j.Model))
	}
	return p.query.Table, models
}

// Execute runs the cached plan. It fails with ErrStalePlan when the
// catalog has changed since Prepare — re-prepare and retry. Execution
// (not planning) is also guarded by the plan's pinned model versions,
// so a retrain racing past the epoch check still cannot mix plans
// across model generations. Execution options (WithDOP, WithAnalyze,
// WithNoFallback, WithPartialAggs) are honored per call; plan-shaping
// options are fixed at Prepare.
func (p *Prepared) Execute(ctx context.Context, opts ...QueryOption) (*Result, error) {
	qc, err := buildQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	if !p.Valid() {
		return nil, ErrStalePlan
	}
	return p.collect(ctx, qc)
}

// ExecuteInto is Execute for a caller that consumes the rows as the plan
// produces them instead of receiving them in Result.Rows, which stays
// nil: each batch goes to sink while it is still valid, so the answer is
// never held as tuples. See RowSink for what a sink owes — above all
// that an attempt can begin again (the engine's fallback re-run) after
// rows were delivered, and that nothing delivered counts unless
// ExecuteInto returns a nil error.
func (p *Prepared) ExecuteInto(ctx context.Context, sink RowSink, opts ...QueryOption) (*Result, error) {
	qc, err := buildQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	if !p.Valid() {
		return nil, ErrStalePlan
	}
	return p.run(ctx, qc, sink)
}

// collect runs the plan into a row buffer and returns the rows, and the
// report in Analyze, on the Result: what Execute and ad-hoc Query answer
// with.
func (p *Prepared) collect(ctx context.Context, qc queryConfig) (*Result, error) {
	var rows exec.RowBuffer
	res, err := p.run(ctx, qc, &rows)
	if err != nil {
		return nil, err
	}
	res.Rows = rows.Rows
	res.Analyze = res.Report()
	return res, nil
}

// run executes the compiled plan into sink under one call's execution
// options. It is everything Execute, ExecuteInto and ad-hoc Query share;
// only the first two check the epoch first, since an ad-hoc plan was
// compiled for this very call.
func (p *Prepared) run(ctx context.Context, qc queryConfig, sink RowSink) (*Result, error) {
	e := p.eng
	if qc.partialAggs && !p.query.Grouped() {
		return nil, fmt.Errorf("minequery: %w: partial-aggregate execution requires GROUP BY or aggregate select items", qerr.ErrUnsupportedQuery)
	}
	execOpts := e.execOpts
	if qc.dop > 0 {
		execOpts.DOP = qc.dop
	}
	var analyzeBase expr.Expr
	if qc.analyze {
		// The attribution baseline is the query's own predicate projected
		// to data columns — what the scan-level filter would have been
		// without envelope augmentation.
		baseRw, err := core.BaselineRewrite(p.query, e.cat, e.optCfg.MaxDisjuncts)
		if err != nil {
			return nil, err
		}
		analyzeBase = baseRw.DataPred
	}
	res, err := p.executePlan(ctx, execOpts, analyzeBase, qc, sink)
	if errors.Is(err, qerr.ErrPlanInvalidated) {
		// The exec-layer version guard fired: a model changed between
		// compilation (or the epoch check) and plan build-out. Surface it
		// as staleness.
		return nil, fmt.Errorf("%w (%v)", ErrStalePlan, err)
	}
	return res, err
}

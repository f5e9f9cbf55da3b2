// Aggregate execution: the HashAgg(Final) operator and the partial-
// aggregate producers it pushes down into the scan.
//
// The Final operator never receives row batches from a Partial
// iterator. Instead it owns a partial runner chosen from the shape of
// the Partial's child pipeline:
//
//   - a fused columnar runner when the leaf is a columnar SeqScan with
//     a fresh sidecar (selection vectors feed accumulators directly,
//     or materialize rows first when prediction joins sit above the
//     scan);
//   - a fused morsel runner for row-heap SeqScans at DOP > 1 (each
//     worker claims page-range morsels and accumulates into its own
//     state);
//   - a generic runner that drains the ordinary batch pipeline for
//     everything else (index paths, constant scans, DOP 1).
//
// Every runner produces per-worker agg.Tables merged into one. Because
// partial states are order-independent (see internal/agg), the merged
// result — and therefore the finalized output — is byte-identical at
// any DOP, on any path, to the serial run.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/exec/vec"
	"minequery/internal/expr"
	"minequery/internal/fault"
	"minequery/internal/mining"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// aggChain is a partial aggregate's input pipeline when it has the
// canonical pushdown shape: [post-filter] over [prediction joins] over
// [scan filter] over a SeqScan.
type aggChain struct {
	scan       *plan.SeqScan
	scanFilter *plan.Filter
	predicts   []*plan.Predict // bottom-up (application) order
	postFilter *plan.Filter
}

// extractAggChain recognizes the pushdown shape, or returns nil to
// route the partial to the generic runner.
func extractAggChain(n plan.Node) *aggChain {
	c := &aggChain{}
	if f, ok := n.(*plan.Filter); ok {
		c.postFilter = f
		n = f.Child
	}
	for {
		p, ok := n.(*plan.Predict)
		if !ok {
			break
		}
		c.predicts = append([]*plan.Predict{p}, c.predicts...)
		n = p.Child
	}
	if f, ok := n.(*plan.Filter); ok {
		c.scanFilter = f
		n = f.Child
	}
	s, ok := n.(*plan.SeqScan)
	if !ok {
		return nil
	}
	c.scan = s
	// With no prediction joins a single filter sits directly on the
	// scan: treat it as the scan filter (it evaluates over the base
	// schema, so the columnar runner can fuse it).
	if len(c.predicts) == 0 && c.scanFilter == nil && c.postFilter != nil {
		c.scanFilter, c.postFilter = c.postFilter, nil
	}
	return c
}

// aggPipeline is the shared, worker-independent state of a fused
// partial runner: resolved schemas and model bindings plus the
// collector slots the fused path must feed manually (the fused
// operators replace the instrumented row operators).
type aggPipeline struct {
	chain  *aggChain
	table  *catalog.Table
	schema *value.Schema // input schema of the partial (post-predict)
	baseW  int           // table schema width
	binds  []mining.Binding

	scanPred expr.Expr // chain.scanFilter's predicate, or nil
	postPred expr.Expr // chain.postFilter's predicate, or nil

	scanSt     *OpStats
	scanFiltSt *OpStats
	scanBase   expr.Expr
	predSts    []*OpStats
	postSt     *OpStats
	postBase   expr.Expr
}

func newAggPipeline(c *catalog.Catalog, chain *aggChain, opts Options) (*aggPipeline, error) {
	t, ok := c.Table(chain.scan.Table)
	if !ok {
		return nil, fmt.Errorf("exec: no table %q", chain.scan.Table)
	}
	p := &aggPipeline{chain: chain, table: t, schema: t.Schema, baseW: t.Schema.Len()}
	for _, pr := range chain.predicts {
		me, ok := c.Model(pr.Model)
		if !ok {
			return nil, fmt.Errorf("exec: no model %q", pr.Model)
		}
		if pr.Version != 0 && me.Version != pr.Version {
			return nil, fmt.Errorf("exec: %w: model %q is v%d, plan was optimized at v%d",
				qerr.ErrPlanInvalidated, pr.Model, me.Version, pr.Version)
		}
		b, sch, err := predictBinding(p.schema, me, pr.As)
		if err != nil {
			return nil, err
		}
		p.binds = append(p.binds, b)
		p.schema = sch
	}
	if chain.scanFilter != nil {
		p.scanPred = chain.scanFilter.Pred
	}
	if chain.postFilter != nil {
		p.postPred = chain.postFilter.Pred
	}
	if col := opts.Collector; col != nil {
		p.scanSt = col.Op(chain.scan)
		if chain.scanFilter != nil {
			p.scanFiltSt = col.Op(chain.scanFilter)
			p.scanBase = col.envBaseline(chain.scanFilter)
		}
		for _, pr := range chain.predicts {
			p.predSts = append(p.predSts, col.Op(pr))
		}
		if chain.postFilter != nil {
			p.postSt = col.Op(chain.postFilter)
			p.postBase = col.envBaseline(chain.postFilter)
		}
	}
	return p, nil
}

// aggCounts is one worker's operator counters, flushed to the shared
// atomic OpStats once per morsel or column group.
type aggCounts struct {
	scanRows               int64
	filtKept               int64
	envRej, residRej       int64
	predicted              int64
	postKept               int64
	postEnvRej, postResRej int64
}

// flush publishes the counters. countScan is false on the columnar
// path, whose selectGroup already accounts the scan and scan filter.
func (p *aggPipeline) flush(c *aggCounts, countScan bool) {
	if countScan && p.scanSt != nil {
		p.scanSt.Rows.Add(c.scanRows)
		p.scanSt.Batches.Add(1)
	}
	if countScan && p.scanFiltSt != nil {
		p.scanFiltSt.Rows.Add(c.filtKept)
		p.scanFiltSt.EnvRejected.Add(c.envRej)
		p.scanFiltSt.ResidRejected.Add(c.residRej)
	}
	for _, st := range p.predSts {
		st.Rows.Add(c.predicted)
	}
	if p.postSt != nil {
		p.postSt.Rows.Add(c.postKept)
		p.postSt.EnvRejected.Add(c.postEnvRej)
		p.postSt.ResidRejected.Add(c.postResRej)
	}
	*c = aggCounts{}
}

// aggWorker is one producer's private accumulation state.
type aggWorker struct {
	p    *aggPipeline
	tab  *agg.Table
	row  value.Tuple   // full-width (post-predict) row buffer
	bufs []value.Tuple // per-binding PredictInto scratch
	cnt  aggCounts
}

func (p *aggPipeline) newWorker(spec *agg.Spec) *aggWorker {
	w := &aggWorker{p: p, tab: agg.NewTable(spec), row: make(value.Tuple, p.schema.Len())}
	for _, b := range p.binds {
		w.bufs = append(w.bufs, make(value.Tuple, len(b.Ordinals)))
	}
	return w
}

// processRow runs the full per-row pipeline over the base row already
// in w.row[:baseW]: scan filter, prediction joins, post filter,
// accumulate. (agg.Table.Add copies what it keeps, so the buffer is
// reusable immediately.)
func (w *aggWorker) processRow() {
	p := w.p
	w.cnt.scanRows++
	if p.scanPred != nil {
		base := w.row[:p.baseW]
		if !p.scanPred.Eval(p.table.Schema, base) {
			if p.scanBase != nil && p.scanFiltSt != nil {
				if p.scanBase.Eval(p.table.Schema, base) {
					w.cnt.envRej++
				} else {
					w.cnt.residRej++
				}
			}
			return
		}
		w.cnt.filtKept++
	}
	w.finishRow()
}

// finishRow is processRow after the scan filter — the entry point for
// the columnar path, whose selection vector already applied it.
func (w *aggWorker) finishRow() {
	p := w.p
	for i, b := range p.binds {
		w.row[p.baseW+i] = b.PredictInto(w.row[:p.baseW+i], w.bufs[i])
	}
	if len(p.binds) > 0 {
		w.cnt.predicted++
	}
	if p.postPred != nil {
		if !p.postPred.Eval(p.schema, w.row) {
			if p.postBase != nil && p.postSt != nil {
				if p.postBase.Eval(p.schema, w.row) {
					w.cnt.postEnvRej++
				} else {
					w.cnt.postResRej++
				}
			}
			return
		}
		w.cnt.postKept++
	}
	w.tab.Add(w.row)
}

// aggRunner produces the merged partial state for one execution.
type aggRunner interface {
	run(spec *agg.Spec) (*agg.Table, error)
	close()
}

// ---------------------------------------------------------------------
// Generic runner: drain the ordinary (instrumented) batch pipeline.

type genericAggRun struct {
	ctx   context.Context
	child BatchIterator
}

func (g *genericAggRun) run(spec *agg.Spec) (*agg.Table, error) {
	tab := agg.NewTable(spec)
	for {
		if err := ctxErr(g.ctx); err != nil {
			return nil, err
		}
		b, done, err := g.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if done {
			return tab, nil
		}
		for _, t := range b {
			tab.Add(t)
		}
	}
}

func (g *genericAggRun) close() { g.child.Close() }

// ---------------------------------------------------------------------
// Morsel runner: row-heap partial aggregation at DOP > 1.

type morselAggRun struct {
	ctx  context.Context
	p    *aggPipeline
	opts Options
}

func (m *morselAggRun) run(spec *agg.Spec) (*agg.Table, error) {
	t := m.p.table
	morsels := morselRanges(t.PartitionPageRanges(m.p.chain.scan.Partitions), m.opts.MorselPages)
	workers := m.opts.DOP
	if workers > len(morsels) {
		workers = len(morsels)
	}
	if workers < 1 {
		workers = 1
	}
	claim := new(atomic.Int64)
	cancel := new(atomic.Bool)
	tabs := make([]*agg.Table, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		w := m.p.newWorker(spec)
		tabs[wi] = w.tab
		var ws *WorkerStats
		if m.opts.Collector != nil {
			ws = m.opts.Collector.newWorker()
		}
		wg.Add(1)
		go func(wi int, w *aggWorker) {
			defer wg.Done()
			errs[wi] = m.worker(w, morsels, claim, cancel, ws)
		}(wi, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctxErr(m.ctx); err != nil {
		return nil, err
	}
	out := tabs[0]
	for _, tb := range tabs[1:] {
		out.Merge(tb)
	}
	return out, nil
}

// worker claims morsels off the shared cursor, mirroring scanWorker's
// fault surface: SiteMorselClaim fires per claim, and pages are read
// one per retry attempt so a transient failure cannot double-count
// rows into the accumulators.
func (m *morselAggRun) worker(w *aggWorker, morsels [][2]int, claim *atomic.Int64, cancel *atomic.Bool, ws *WorkerStats) error {
	t := m.p.table
	io := ioOf(m.opts.Collector)
	onRetry := m.opts.onRetry()
	done := m.ctx.Done()
	stopped := func() bool {
		if cancel.Load() {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	fail := func(err error) error {
		cancel.Store(true)
		return err
	}
	for {
		mi := int(claim.Add(1) - 1)
		if mi >= len(morsels) {
			return nil
		}
		if stopped() {
			return nil // run() re-checks the ctx after the join
		}
		if ferr := m.opts.Faults.Hit(fault.SiteMorselClaim); ferr != nil {
			return fail(fmt.Errorf("exec: aggregate scan %s morsel %d: %w", t.Name, mi, ferr))
		}
		var start time.Time
		if ws != nil {
			start = time.Now()
		}
		var decodeErr error
		decode := func(_ storage.RID, rec []byte) bool {
			tup, err := value.DecodeTuple(rec)
			if err != nil {
				decodeErr = fmt.Errorf("exec: scan %s: %w", t.Name, err)
				return false
			}
			copy(w.row, tup)
			w.processRow()
			return true
		}
		for pi := morsels[mi][0]; pi < morsels[mi][1]; pi++ {
			if stopped() {
				return nil
			}
			page := pi
			if err := fault.Retry(m.ctx, m.opts.Clock, m.opts.Retry, func() error {
				return t.Heap.ScanPagesInto(io, page, page+1, decode)
			}, onRetry); err != nil {
				return fail(fmt.Errorf("exec: scan %s: %w", t.Name, err))
			}
			if decodeErr != nil {
				return fail(decodeErr)
			}
		}
		if ws != nil {
			ws.Morsels.Add(1)
			ws.Rows.Add(w.cnt.scanRows)
			ws.WallNanos.Add(time.Since(start).Nanoseconds())
		}
		m.p.flush(&w.cnt, true)
	}
}

func (m *morselAggRun) close() {}

// ---------------------------------------------------------------------
// Columnar runner: selection vectors feed accumulators directly.

type vecAggRun struct {
	ctx    context.Context
	p      *aggPipeline
	core   *vecCore
	groups []*storage.ColGroup
	opts   Options
}

// newVecAggRun builds the fused columnar partial runner, or returns
// nil — routing to the morsel/generic runner — when the sidecar is
// stale or missing or the scan filter's shape defeats vectorization.
func newVecAggRun(ctx context.Context, p *aggPipeline, opts Options) *vecAggRun {
	t := p.table
	cs := t.ColumnStore()
	if cs == nil {
		return nil
	}
	var vp *vec.Pred
	if p.scanPred != nil {
		c, ok := vec.Compile(p.scanPred, t.Schema, t.Stats())
		if !ok {
			return nil
		}
		vp = c
	}
	groups := cs.Groups
	if parts := p.chain.scan.Partitions; parts != nil {
		keep := make(map[int]bool, len(parts))
		for _, pt := range parts {
			keep[pt] = true
		}
		groups = nil
		for _, g := range cs.Groups {
			if keep[g.Part] {
				groups = append(groups, g)
			}
		}
	}
	core := &vecCore{table: t, pred: vp, opts: opts, io: ioOf(opts.Collector)}
	if col := opts.Collector; col != nil {
		core.scanSt = col.Op(p.chain.scan)
		if p.chain.scanFilter != nil {
			if base := col.envBaseline(p.chain.scanFilter); base != nil {
				core.filtSt, core.base = col.Op(p.chain.scanFilter), base
			}
		}
	}
	return &vecAggRun{ctx: ctx, p: p, core: core, groups: groups, opts: opts}
}

func (v *vecAggRun) run(spec *agg.Spec) (*agg.Table, error) {
	// Direct accumulation needs only the spec's input ordinals; with
	// prediction joins or a residual the whole row is materialized.
	var need []int
	if len(v.p.binds) == 0 && v.p.postPred == nil {
		seen := make([]bool, v.p.baseW)
		for _, g := range spec.GroupBy {
			seen[g.Ord] = true
		}
		for _, it := range spec.Items {
			if it.Ord >= 0 {
				seen[it.Ord] = true
			}
		}
		need = make([]int, 0, len(seen))
		for o, s := range seen {
			if s {
				need = append(need, o)
			}
		}
	}

	// Serial warmup in measurement mode, exactly like vecScan, so the
	// frozen term order (and the EXPLAIN ANALYZE counters) match the
	// non-aggregated columnar scan over the same predicate.
	w0 := v.p.newWorker(spec)
	sc := vec.NewScratch()
	warm := 0
	if v.core.pred != nil {
		warm = warmupGroups
	}
	gi := 0
	for gi < len(v.groups) && gi < warm {
		if err := ctxErr(v.ctx); err != nil {
			return nil, err
		}
		v.aggGroup(w0, v.groups[gi], sc, need)
		gi++
	}
	if v.core.pred != nil {
		v.core.pred.Freeze()
	}

	rem := v.groups[gi:]
	tab := w0.tab
	if v.opts.DOP > 1 && len(rem) > 1 {
		workers := v.opts.DOP
		if workers > len(rem) {
			workers = len(rem)
		}
		claim := new(atomic.Int64)
		cancel := new(atomic.Bool)
		tabs := make([]*agg.Table, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			w := v.p.newWorker(spec)
			tabs[wi] = w.tab
			var ws *WorkerStats
			if v.opts.Collector != nil {
				ws = v.opts.Collector.newWorker()
			}
			wg.Add(1)
			go func(wi int, w *aggWorker) {
				defer wg.Done()
				errs[wi] = v.worker(w, rem, claim, cancel, ws, need)
			}(wi, w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for _, tb := range tabs {
			tab.Merge(tb)
		}
	} else {
		for ; gi < len(v.groups); gi++ {
			if err := ctxErr(v.ctx); err != nil {
				return nil, err
			}
			v.aggGroup(w0, v.groups[gi], sc, need)
		}
	}
	if err := ctxErr(v.ctx); err != nil {
		return nil, err
	}
	if col := v.opts.Collector; col != nil {
		col.setVecInfo(v.p.chain.scan, v.core.info())
	}
	return tab, nil
}

func (v *vecAggRun) worker(w *aggWorker, groups []*storage.ColGroup, claim *atomic.Int64, cancel *atomic.Bool, ws *WorkerStats, need []int) error {
	sc := vec.NewScratch()
	done := v.ctx.Done()
	stopped := func() bool {
		if cancel.Load() {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	for {
		gi := int(claim.Add(1) - 1)
		if gi >= len(groups) {
			return nil
		}
		if stopped() {
			return nil // run() re-checks the ctx after the join
		}
		if ferr := v.opts.Faults.Hit(fault.SiteMorselClaim); ferr != nil {
			cancel.Store(true)
			return fmt.Errorf("exec: columnar aggregate scan %s group %d: %w", v.p.table.Name, gi, ferr)
		}
		var start time.Time
		if ws != nil {
			start = time.Now()
		}
		v.aggGroup(w, groups[gi], sc, need)
		if ws != nil {
			ws.Morsels.Add(1)
			ws.Rows.Add(int64(groups[gi].N))
			ws.WallNanos.Add(time.Since(start).Nanoseconds())
		}
	}
}

// aggGroup accumulates one column group's surviving rows. need, when
// non-nil, lists the only base ordinals the spec reads (the direct
// path); nil materializes the whole row for predicts and the residual.
func (v *vecAggRun) aggGroup(w *aggWorker, g *storage.ColGroup, sc *vec.Scratch, need []int) {
	sel, n := v.core.selectGroup(g, sc)
	p := v.p
	for k := 0; k < n; k++ {
		ri := k
		if sel != nil {
			ri = int(sel[k])
		}
		if need != nil {
			for _, ci := range need {
				w.row[ci] = g.Cols[ci].Value(ri)
			}
		} else {
			for ci := 0; ci < p.baseW; ci++ {
				w.row[ci] = g.Cols[ci].Value(ri)
			}
		}
		w.finishRow()
	}
	p.flush(&w.cnt, false)
}

func (v *vecAggRun) close() {}

// ---------------------------------------------------------------------
// The Final operator.

// newPartialRunner picks the partial producer for a Partial node's
// pipeline and resolves the aggregation spec against its input schema.
// Shared by the Final operator and the engine's partial-only mode (a
// shard answering a scatter-gathered aggregate).
func newPartialRunner(ctx context.Context, c *catalog.Catalog, part *plan.HashAgg, opts Options) (aggRunner, *agg.Spec, error) {
	var (
		runner   aggRunner
		inSchema *value.Schema
	)
	if chain := extractAggChain(part.Child); chain != nil {
		p, err := newAggPipeline(c, chain, opts)
		if err != nil {
			return nil, nil, err
		}
		if chain.scan.Columnar {
			if v := newVecAggRun(ctx, p, opts); v != nil {
				runner, inSchema = v, p.schema
			}
		}
		if runner == nil && opts.DOP > 1 {
			runner, inSchema = &morselAggRun{ctx: ctx, p: p, opts: opts}, p.schema
		}
	}
	if runner == nil {
		child, err := buildBatchNode(ctx, c, part.Child, opts)
		if err != nil {
			return nil, nil, err
		}
		runner, inSchema = &genericAggRun{ctx: ctx, child: child}, child.Schema()
	}
	spec, err := agg.Resolve(inSchema, part.GroupBy, part.Aggs)
	if err != nil {
		runner.close()
		return nil, nil, fmt.Errorf("exec: %w", err)
	}
	return runner, spec, nil
}

// RunPartialAgg executes just the Partial half of a split aggregation
// and returns the merged partial state — what a shard sends back for
// the coordinator to merge.
func RunPartialAgg(ctx context.Context, c *catalog.Catalog, part *plan.HashAgg, opts Options) (*agg.Table, error) {
	opts = opts.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	runner, spec, err := newPartialRunner(ctx, c, part, opts)
	if err != nil {
		return nil, err
	}
	defer runner.close()
	tab, err := runner.run(spec)
	if err != nil {
		return nil, err
	}
	reportPartial(opts.Collector, part, tab)
	return tab, nil
}

// reportPartial feeds the Partial node's stats (it never runs as a
// batch iterator) and the merge counter.
func reportPartial(col *Collector, part *plan.HashAgg, tab *agg.Table) {
	if col == nil {
		return
	}
	col.AggMerges.Add(tab.Merges())
	st := col.Op(part)
	st.Rows.Add(int64(tab.Groups()))
	st.Batches.Add(1)
	st.Calls.Add(1)
}

// batchFinalAgg merges the partial producer's state and emits the
// finalized rows. It is a full pipeline breaker: the first NextBatch
// runs the entire partial aggregation.
type batchFinalAgg struct {
	runner aggRunner
	part   *plan.HashAgg
	spec   *agg.Spec
	out    *value.Schema
	col    *Collector
	size   int
	rows   []value.Tuple
	pos    int
	ran    bool
	err    error
}

func newBatchFinalAgg(ctx context.Context, c *catalog.Catalog, final *plan.HashAgg, opts Options) (BatchIterator, error) {
	part, ok := final.Child.(*plan.HashAgg)
	if !ok || part.Phase != plan.AggPartial {
		return nil, fmt.Errorf("exec: HashAgg(final) requires a HashAgg(partial) child, got %T", final.Child)
	}
	runner, spec, err := newPartialRunner(ctx, c, part, opts)
	if err != nil {
		return nil, err
	}
	out, err := spec.OutSchema()
	if err != nil {
		runner.close()
		return nil, fmt.Errorf("exec: %w", err)
	}
	return &batchFinalAgg{
		runner: runner, part: part, spec: spec, out: out,
		col: opts.Collector, size: opts.BatchSize,
	}, nil
}

func (f *batchFinalAgg) Schema() *value.Schema { return f.out }

func (f *batchFinalAgg) NextBatch() (Batch, bool, error) {
	if f.err != nil {
		return nil, false, f.err
	}
	if !f.ran {
		f.ran = true
		tab, err := f.runner.run(f.spec)
		if err != nil {
			f.err = err
			return nil, false, err
		}
		reportPartial(f.col, f.part, tab)
		f.rows = tab.Finalize()
	}
	if f.pos >= len(f.rows) {
		return nil, true, nil
	}
	end := f.pos + f.size
	if end > len(f.rows) {
		end = len(f.rows)
	}
	b := Batch(f.rows[f.pos:end])
	f.pos = end
	return b, false, nil
}

func (f *batchFinalAgg) Close() {
	f.runner.close()
	f.pos = len(f.rows)
}

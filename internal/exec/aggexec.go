// Aggregate execution: the HashAgg(Final) operator and the partial
// aggregation it pushes down into the scan.
//
// The Final operator never receives row batches from a Partial
// iterator. It owns one partialAgg driver, which schedules an aggSource
// picked from the shape of the Partial's child pipeline, gives every
// worker a private agg.Table, and merges them. Three invariants make
// the finalized output — and the EXPLAIN ANALYZE counters —
// byte-identical at any DOP, on any source, to the serial run:
//
//   - partial states are order-independent (see internal/agg), so
//     neither the scheduling of units nor the merge order shows;
//   - a columnar source's warmup prefix runs serially before any unit is
//     scheduled, so the frozen term order and the per-term counters do
//     not depend on the DOP;
//   - a heap page is read one page per retry attempt (scanPages), and a
//     failed attempt delivers no record, so a retried page never
//     double-counts into an accumulator.
package exec

import (
	"context"
	"fmt"
	"sync"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/exec/vec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/plan"
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
	base   *value.Schema // the scan's rows: the table's, narrowed on the heap path
	schema *value.Schema // input schema of the partial (post-predict)
	baseW  int           // base's width
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

// newAggPipeline resolves chain over rows of the table t with schema
// base.
func newAggPipeline(c *catalog.Catalog, chain *aggChain, t *catalog.Table, base *value.Schema, opts Options) (*aggPipeline, error) {
	p := &aggPipeline{chain: chain, table: t, base: base, schema: base, baseW: base.Len()}
	if f := chain.scanFilter; f != nil {
		if err := predNotDecoded(base, f, f.Pred); err != nil {
			return nil, err
		}
		p.scanPred = f.Pred
	}
	for _, pr := range chain.predicts {
		me, err := lookupModel(c, pr)
		if err != nil {
			return nil, err
		}
		b, sch, err := predictBinding(p.schema, pr, me)
		if err != nil {
			return nil, err
		}
		p.binds = append(p.binds, b)
		p.schema = sch
	}
	if f := chain.postFilter; f != nil {
		if err := predNotDecoded(p.schema, f, f.Pred); err != nil {
			return nil, err
		}
		p.postPred = f.Pred
	}
	if col := opts.Collector; col != nil {
		p.scanSt = col.Op(chain.scan)
		if f := chain.scanFilter; f != nil {
			p.scanFiltSt = col.Op(f)
			p.scanBase = col.envBaseline(f)
			if err := predNotDecoded(base, f, p.scanBase); err != nil {
				return nil, err
			}
		}
		for _, pr := range chain.predicts {
			p.predSts = append(p.predSts, col.Op(pr))
		}
		if f := chain.postFilter; f != nil {
			p.postSt = col.Op(f)
			p.postBase = col.envBaseline(f)
			if err := predNotDecoded(p.schema, f, p.postBase); err != nil {
				return nil, err
			}
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
	row  value.Tuple   // post-predict row buffer
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
		if !p.scanPred.Eval(p.base, base) {
			if p.scanBase != nil && p.scanFiltSt != nil {
				if p.scanBase.Eval(p.base, base) {
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

// aggGroup accumulates one column group's surviving rows straight from
// the selection vector through w.row — no batch is materialized. need,
// when non-nil, lists the only base ordinals the spec reads (the direct
// path); nil fills the whole row for predicts and the residual.
func (w *aggWorker) aggGroup(core *vecCore, g *storage.ColGroup, sc *vec.Scratch, need []int) {
	sel, n := core.selectGroup(g, sc)
	p := w.p
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
	p.flush(&w.cnt, false) // selectGroup already counted the scan and its filter
}

// aggSource is what the driver schedules: units independent units of
// input. The first warm of them run serially, in order, on the calling
// goroutine; seal then runs once; the rest may run in any order on any
// worker.
type aggSource struct {
	what  string // names a unit in pool errors
	units int
	warm  int
	seal  func()
	// worker returns a fresh private table and the function accumulating
	// unit i into it (returning the rows the unit scanned).
	worker func() (*agg.Table, func(i int) (int64, error))
	// finish publishes source-level actuals after a successful run.
	finish func()
	close  func()
}

// drainSource is the generic source: one unit that drains the ordinary
// (instrumented) batch pipeline — index paths, constant scans, DOP 1.
func drainSource(ctx context.Context, child BatchIterator, spec *agg.Spec) aggSource {
	return aggSource{units: 1, close: child.Close, worker: func() (*agg.Table, func(int) (int64, error)) {
		tab := agg.NewTable(spec)
		return tab, func(int) (int64, error) {
			for {
				if err := ctxErr(ctx); err != nil {
					return 0, err
				}
				b, done, err := child.NextBatch()
				if done || err != nil {
					return 0, err
				}
				for _, t := range b {
					tab.Add(t)
				}
			}
		}
	}}
}

// heapSource is the row-heap source at DOP > 1: one unit per page-range
// morsel, run through the fused per-row pipeline, its records decoded
// under need (p.base's columns).
func heapSource(ctx context.Context, p *aggPipeline, need []bool, spec *agg.Spec, opts Options) aggSource {
	t := p.table
	morsels := morselRanges(t.PartitionPageRanges(p.chain.scan.Partitions), opts.MorselPages)
	return aggSource{what: "aggregate scan " + t.Name + " morsel", units: len(morsels),
		worker: func() (*agg.Table, func(int) (int64, error)) {
			w := p.newWorker(spec)
			// Every record is decoded straight into the worker's row buffer.
			dst := func() value.Tuple { return w.row[:0:p.baseW] }
			row := func(storage.RID, []byte, value.Tuple) bool {
				w.processRow()
				return true
			}
			return w.tab, func(m int) (int64, error) {
				err := scanPages(ctx, t, opts, need, morsels[m][0], morsels[m][1], nil, dst, row)
				rows := w.cnt.scanRows
				p.flush(&w.cnt, true)
				return rows, err
			}
		}}
}

// columnSource is the columnar source: one unit per column group,
// selection vectors feeding the accumulators directly, with the serial
// measurement-mode warmup of vecScan so the frozen term order (and the
// EXPLAIN ANALYZE counters) match the non-aggregated columnar scan over
// the same predicate.
func columnSource(p *aggPipeline, core *vecCore, spec *agg.Spec, opts Options) aggSource {
	// Direct accumulation needs only the spec's input ordinals; with
	// prediction joins or a residual the whole row is filled.
	var need []int
	if len(p.binds) == 0 && p.postPred == nil {
		seen := make([]bool, p.baseW)
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
	// The workers' scratches go back when the partial aggregate closes:
	// run has joined its pool by then. (worker is only ever called from
	// the driver's goroutine.)
	var scratches []*vec.Scratch
	src := aggSource{what: "columnar aggregate scan " + p.table.Name + " group", units: len(core.groups),
		warm: core.warm(), seal: core.freeze,
		worker: func() (*agg.Table, func(int) (int64, error)) {
			w, sc := p.newWorker(spec), vec.NewScratch()
			scratches = append(scratches, sc)
			return w.tab, func(gi int) (int64, error) {
				g := core.groups[gi]
				w.aggGroup(core, g, sc, need)
				return int64(g.N), nil
			}
		},
		close: func() {
			for _, sc := range scratches {
				sc.Release()
			}
			scratches = nil
		}}
	if col := opts.Collector; col != nil {
		// Nothing wraps the fused scan leaf, so the core counts it even
		// without a filter.
		core.scanSt = col.Op(p.chain.scan)
		src.finish = func() { col.setVecInfo(p.chain.scan, core.info()) }
	}
	return src
}

// partialAgg is the one partial-aggregate driver: it produces the merged
// partial state of one execution of a Partial node, for the Final
// operator above it or — partial-only — for a shard answering a
// scatter-gathered aggregate.
type partialAgg struct {
	ctx  context.Context
	opts Options
	part *plan.HashAgg
	spec *agg.Spec
	src  aggSource
}

// newPartialAgg resolves the aggregation spec against the Partial's
// input schema and picks the source from what it observes: a columnar
// SeqScan leaf with a fresh sidecar and a vectorizable scan filter runs
// over column groups; any other SeqScan pipeline of the pushdown shape
// runs over heap morsels at DOP > 1; everything else drains the child.
func newPartialAgg(ctx context.Context, c *catalog.Catalog, part *plan.HashAgg, opts Options) (*partialAgg, error) {
	a := &partialAgg{ctx: ctx, opts: opts, part: part}
	resolve := func(in *value.Schema) (err error) {
		if err := notDecoded(in, part, part.GroupBy...); err != nil {
			return err
		}
		for _, it := range part.Aggs {
			if !it.Star {
				if err := notDecoded(in, part, it.Col); err != nil {
					return err
				}
			}
		}
		if a.spec, err = agg.Resolve(in, part.GroupBy, part.Aggs); err != nil {
			err = fmt.Errorf("exec: %w", err)
		}
		return err
	}
	if chain := extractAggChain(part.Child); chain != nil {
		t, ok := c.Table(chain.scan.Table)
		if !ok {
			return nil, fmt.Errorf("exec: no table %q", chain.scan.Table)
		}
		var core *vecCore
		if chain.scan.Columnar {
			core = newVecCore(t, chain.scan, chain.scanFilter, opts)
		}
		if core != nil || opts.DOP > 1 {
			// Column groups fill whole-width rows by table ordinal; the heap
			// decodes the columns the partial reads.
			cols := scanCols{schema: t.Schema}
			if core == nil {
				cols = leafCols(c, t, part, opts.Collector)
			}
			p, err := newAggPipeline(c, chain, t, cols.schema, opts)
			if err != nil {
				return nil, err
			}
			if err := resolve(p.schema); err != nil {
				return nil, err
			}
			if core != nil {
				a.src = columnSource(p, core, a.spec, opts)
			} else {
				a.src = heapSource(ctx, p, cols.need, a.spec, opts)
			}
			return a, nil
		}
	}
	child, err := buildBatchNode(ctx, c, part, part.Child, opts)
	if err != nil {
		return nil, err
	}
	if err := resolve(child.Schema()); err != nil {
		child.Close()
		return nil, err
	}
	a.src = drainSource(ctx, child, a.spec)
	return a, nil
}

// run executes the partial aggregation: the serial prefix, then the rest
// of the units on the morsel pool (DOP > 1 and more than one unit left)
// or serially, then the merge.
func (a *partialAgg) run() (*agg.Table, error) {
	src := a.src
	tab, unit := src.worker()
	next := 0
	serial := func(end int) error {
		for ; next < end; next++ {
			if err := ctxErr(a.ctx); err != nil {
				return err
			}
			if _, err := unit(next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := serial(src.warm); err != nil {
		return nil, err
	}
	if src.seal != nil {
		src.seal()
	}
	if rest := src.units - next; a.opts.DOP > 1 && rest > 1 {
		// The prefix's state goes on as the first worker's; a failed unit
		// stops the pool and the first failure wins.
		first := next
		pool := newMorselPool(a.ctx, a.opts, src.what, rest)
		var (
			others []*agg.Table
			once   sync.Once
			err    error
		)
		post := func(_ int, uerr error) {
			if uerr != nil {
				once.Do(func() { err = uerr })
				pool.stop()
			}
		}
		for wi := 0; wi < pool.workers(); wi++ {
			wunit := unit
			if wi > 0 {
				var wtab *agg.Table
				wtab, wunit = src.worker()
				others = append(others, wtab)
			}
			pool.start(func(i int) (int64, error) { return wunit(first + i) }, post, nil)
		}
		pool.wg.Wait()
		if err != nil {
			return nil, err
		}
		for _, tb := range others {
			tab.Merge(tb)
		}
	} else if err := serial(src.units); err != nil {
		return nil, err
	}
	// Column-group units never look at the context, and the serial loop
	// only does before a unit: catch a cancellation during the last ones.
	if err := ctxErr(a.ctx); err != nil {
		return nil, err
	}
	if src.finish != nil {
		src.finish()
	}
	reportPartial(a.opts.Collector, a.part, tab)
	return tab, nil
}

func (a *partialAgg) close() {
	if a.src.close != nil {
		a.src.close()
	}
}

// RunPartialAgg executes just the Partial half of a split aggregation
// and returns the merged partial state — what a shard sends back for
// the coordinator to merge.
func RunPartialAgg(ctx context.Context, c *catalog.Catalog, part *plan.HashAgg, opts Options) (*agg.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a, err := newPartialAgg(ctx, c, part, opts.fill())
	if err != nil {
		return nil, err
	}
	defer a.close()
	return a.run()
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
	partial *partialAgg
	out     *value.Schema
	size    int
	rows    []value.Tuple
	pos     int
	ran     bool
	err     error
}

func newBatchFinalAgg(ctx context.Context, c *catalog.Catalog, final *plan.HashAgg, opts Options) (BatchIterator, error) {
	part, ok := final.Child.(*plan.HashAgg)
	if !ok || part.Phase != plan.AggPartial {
		return nil, fmt.Errorf("exec: HashAgg(final) requires a HashAgg(partial) child, got %T", final.Child)
	}
	partial, err := newPartialAgg(ctx, c, part, opts)
	if err != nil {
		return nil, err
	}
	out, err := partial.spec.OutSchema()
	if err != nil {
		partial.close()
		return nil, fmt.Errorf("exec: %w", err)
	}
	return &batchFinalAgg{partial: partial, out: out, size: opts.BatchSize}, nil
}

func (f *batchFinalAgg) Schema() *value.Schema { return f.out }

func (f *batchFinalAgg) NextBatch() (Batch, bool, error) {
	if f.err != nil {
		return nil, false, f.err
	}
	if !f.ran {
		f.ran = true
		tab, err := f.partial.run()
		if err != nil {
			f.err = err
			return nil, false, err
		}
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
	f.partial.close()
	f.pos = len(f.rows)
}

// Aggregate execution: the HashAgg(Final) operator and the partial
// aggregation it pushes down into the scan.
//
// The Final operator never receives row batches from a Partial
// iterator. It owns one partialAgg driver, which cuts the Partial's
// input into units — heap morsels, column groups, or the whole input —
// and gives every worker a private agg.Table and the Partial's own child
// pipeline, built once by buildBatchNode over a scan leaf the worker
// re-points at each unit it claims. A unit drains the pipeline into the
// table; the driver merges the tables. Three invariants make the
// finalized output — and the EXPLAIN ANALYZE counters — the serial
// run's at any DOP, on either storage format:
//
//   - partial states are order-independent (see internal/agg), so
//     neither the scheduling of units nor the merge order shows;
//   - every unit runs the serial run's operators, counting into the same
//     collector slots, and a columnar source's warmup prefix runs
//     serially before any unit is scheduled, so the frozen term order
//     and the per-term counters do not depend on the DOP;
//   - a heap page is read one page per retry attempt (pageReader), and a
//     failed attempt delivers no record, so a retried page never
//     double-counts into an accumulator.
//
// One shape runs no pipeline: a Partial directly over a columnar leaf
// (a bare scan, or one with its filter fused in) takes each group's
// survivors from the selection vector into the accumulators without
// reconstructing rows, and counts for the leaf what its instrumented
// wrapper would have. (A groupScan worker in its place gives the same
// answers and counters; since its storage is pooled, at about the same
// allocation per statement on the columnar benchmark. DESIGN §14 has the
// numbers.)
package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/exec/vec"
	"minequery/internal/plan"
	"minequery/internal/value"
)

// aggWorker is one worker of a partial aggregation: the table it
// accumulates into, the pipeline that feeds it (nil on the direct
// columnar path), and unit, which runs unit i into the table and returns
// the rows the unit scanned.
type aggWorker struct {
	tab   *agg.Table
	it    BatchIterator
	unit  func(i int) (int64, error)
	close func()
}

// drain runs the worker's pipeline dry into its table.
func (w *aggWorker) drain(ctx context.Context) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		b, done, err := w.it.NextBatch()
		if done || err != nil {
			return err
		}
		for _, t := range b {
			w.tab.Add(t)
		}
	}
}

// partialAgg is the one partial-aggregate driver: it produces the merged
// partial state of one execution of a Partial node, for the Final
// operator above it or — partial-only — for a shard answering a
// scatter-gathered aggregate. Of its units, the first warm run serially,
// in order, on the calling goroutine; seal then runs once; the rest may
// run in any order on any worker.
type partialAgg struct {
	ctx     context.Context
	opts    Options
	part    *plan.HashAgg
	spec    *agg.Spec
	what    string // names a unit in pool errors
	units   int
	warm    int
	seal    func()
	finish  func() // publishes source-level actuals after a successful run
	workers []*aggWorker
}

// newPartialAgg picks the units from the plan's shape and the sidecar's
// freshness, and builds the workers: one, or one per pool goroutine when
// DOP > 1 and more than one unit follows the serial prefix. A SeqScan
// under nothing but Filters, Predicts and Projects is cut into column
// groups when it runs columnar, and into heap morsels at DOP > 1; any
// other input — the heap at DOP 1, index paths, constant scans — is one
// unit.
func newPartialAgg(ctx context.Context, c *catalog.Catalog, part *plan.HashAgg, opts Options) (*partialAgg, error) {
	a := &partialAgg{ctx: ctx, opts: opts, part: part, units: 1}
	newWorker := func() (*aggWorker, error) {
		w, err := a.pipeline(c, nil)
		if err == nil {
			w.unit = func(int) (int64, error) { return 0, w.drain(ctx) }
		}
		return w, err
	}
	if scan, above := unitScan(part.Child); scan != nil {
		if t, ok := c.Table(scan.Table); ok {
			cols := leafCols(c, t, part, opts.Collector)
			if core, node := columnarLeaf(t, scan, above, cols, opts); core != nil {
				newWorker = a.columnGroups(c, scan, core, node, cols)
			} else if opts.DOP > 1 {
				newWorker = a.heapMorsels(c, t, scan, cols)
			}
		}
	}
	n := 1
	if rest := a.units - a.warm; opts.DOP > 1 && rest > 1 {
		n = min(opts.DOP, rest)
	}
	for len(a.workers) < n {
		w, err := newWorker()
		if err != nil {
			a.close()
			return nil, err
		}
		a.workers = append(a.workers, w)
	}
	return a, nil
}

// unitScan returns the SeqScan under n when only row-at-a-time operators
// (Filter, Predict, Project) lie between, so that its input can be cut
// into units, and the operator directly above it (nil when n is the
// scan).
func unitScan(n plan.Node) (scan *plan.SeqScan, above plan.Node) {
	for {
		switch x := n.(type) {
		case *plan.SeqScan:
			return x, above
		case *plan.Filter, *plan.Predict, *plan.Project:
			above, n = n, n.Children()[0]
		default:
			return nil, nil
		}
	}
}

// columnarLeaf is the core of the columnar leaf the build makes for scan
// under above, and the node that leaf stands for: the filter above, when
// the vectorized evaluator takes its predicate, else the scan. The core
// is nil when the scan is not columnar or its sidecar is stale.
func columnarLeaf(t *catalog.Table, scan *plan.SeqScan, above plan.Node, cols scanCols, opts Options) (*vecCore, plan.Node) {
	if !scan.Columnar {
		return nil, nil
	}
	if f, ok := above.(*plan.Filter); ok {
		if core := newVecCore(t, scan, f, cols, opts); core != nil {
			return core, f
		}
	}
	return newVecCore(t, scan, nil, cols, opts), scan
}

// resolve binds the aggregation spec to the Partial's input schema, in:
// the first worker's (every worker's is the same).
func (a *partialAgg) resolve(in *value.Schema) (err error) {
	if a.spec != nil {
		return nil
	}
	part := a.part
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

// pipeline builds a worker around one build of the Partial's child, over
// leaf (nil: the plan's own leaf). The caller sets its unit.
func (a *partialAgg) pipeline(c *catalog.Catalog, leaf *unitLeaf) (*aggWorker, error) {
	it, err := buildBatchNode(a.ctx, c, a.part, a.part.Child, a.opts, leaf)
	if err == nil {
		if err = a.resolve(it.Schema()); err != nil {
			it.Close()
		}
	}
	if err != nil {
		if leaf != nil {
			leaf.it.Close()
		}
		return nil, err
	}
	return &aggWorker{tab: agg.NewTable(a.spec), it: it, close: it.Close}, nil
}

// heapMorsels cuts the scan's pages into morsels, one unit each; a
// worker's leaf is a batchSeqScan it seeks to each morsel it claims.
func (a *partialAgg) heapMorsels(c *catalog.Catalog, t *catalog.Table, scan *plan.SeqScan, cols scanCols) func() (*aggWorker, error) {
	morsels := morselRanges(t.PartitionPageRanges(scan.Partitions), a.opts.MorselPages)
	a.what, a.units = "aggregate scan "+t.Name+" morsel", len(morsels)
	return func() (*aggWorker, error) {
		leaf := newBatchSeqScan(a.ctx, t, scan, cols, a.opts)
		w, err := a.pipeline(c, &unitLeaf{node: scan, it: leaf})
		if err == nil {
			w.unit = func(m int) (int64, error) {
				leaf.seek(morsels[m : m+1])
				err := w.drain(a.ctx)
				return leaf.read, err
			}
		}
		return w, err
	}
}

// columnGroups makes each column group of core a unit, after the core's
// serial warmup. A worker's leaf, standing for node, is a groupScan it
// points at each group it claims — or, when node is the Partial's child,
// there is no leaf and no pipeline (direct).
func (a *partialAgg) columnGroups(c *catalog.Catalog, scan *plan.SeqScan, core *vecCore, node plan.Node, cols scanCols) func() (*aggWorker, error) {
	a.what = "columnar aggregate scan " + core.table.Name + " group"
	a.units, a.warm, a.seal = len(core.groups), core.warm(), core.freeze
	if col := a.opts.Collector; col != nil {
		a.finish = func() { col.setVecInfo(scan, core.info()) }
	}
	if node == a.part.Child {
		return func() (*aggWorker, error) { return a.direct(core, node, cols) }
	}
	return func() (*aggWorker, error) {
		leaf := newGroupScan(core, cols.schema)
		w, err := a.pipeline(c, &unitLeaf{node: node, it: &leaf})
		if err == nil {
			w.unit = func(gi int) (int64, error) {
				g := core.groups[gi]
				leaf.g = g
				err := w.drain(a.ctx)
				return int64(g.N), err
			}
		}
		return w, err
	}
}

// direct is the worker of a Partial directly over a columnar leaf, which
// node stands for: a group's survivors go from the selection vector into
// the accumulators through one row holding the columns the spec reads,
// and node is counted as its instrumented wrapper would count the leaf —
// the survivors, in one batch per BatchSize of them per group.
func (a *partialAgg) direct(core *vecCore, node plan.Node, cols scanCols) (*aggWorker, error) {
	if err := a.resolve(cols.schema); err != nil {
		return nil, err
	}
	var read []int // the row's ordinals the spec reads
	for _, g := range a.spec.GroupBy {
		read = append(read, g.Ord)
	}
	for _, it := range a.spec.Items {
		if it.Ord >= 0 {
			read = append(read, it.Ord)
		}
	}
	slices.Sort(read)
	read = slices.Compact(read)
	var st *OpStats
	if col := a.opts.Collector; col != nil {
		st = col.Op(node)
	}
	tab, row, sc := agg.NewTable(a.spec), make(value.Tuple, cols.schema.Len()), vec.NewScratch()
	return &aggWorker{tab: tab, close: sc.Release, unit: func(gi int) (int64, error) {
		if err := core.hitBatch(); err != nil {
			return 0, err
		}
		start := time.Now()
		g := core.groups[gi]
		sel, n := core.selectGroup(g, sc)
		for k := 0; k < n; k++ {
			ri := k
			if sel != nil {
				ri = int(sel[k])
			}
			for _, o := range read {
				row[o] = g.Cols[core.ords[o]].Value(ri)
			}
			tab.Add(row)
		}
		if st != nil {
			st.Rows.Add(int64(n))
			st.Batches.Add(int64((n + a.opts.BatchSize - 1) / a.opts.BatchSize))
			st.WallNanos.Add(time.Since(start).Nanoseconds())
		}
		return int64(g.N), nil
	}}, nil
}

// run executes the partial aggregation: the serial prefix, then the rest
// of the units on the morsel pool (more than one worker) or serially,
// then the merge.
func (a *partialAgg) run() (*agg.Table, error) {
	first := a.workers[0]
	next := 0
	serial := func(end int) error {
		for ; next < end; next++ {
			if err := ctxErr(a.ctx); err != nil {
				return err
			}
			if _, err := first.unit(next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := serial(a.warm); err != nil {
		return nil, err
	}
	if a.seal != nil {
		a.seal()
	}
	if len(a.workers) > 1 {
		// The prefix's table goes on as the first worker's; a failed unit
		// stops the pool and the first failure wins.
		from := next
		pool := newMorselPool(a.ctx, a.opts, a.what, a.units-from)
		var (
			once sync.Once
			err  error
		)
		post := func(_ int, uerr error) {
			if uerr != nil {
				once.Do(func() { err = uerr })
				pool.stop()
			}
		}
		for _, w := range a.workers {
			pool.start(func(i int) (int64, error) { return w.unit(from + i) }, post, nil)
		}
		pool.wg.Wait()
		if err != nil {
			return nil, err
		}
		for _, w := range a.workers[1:] {
			first.tab.Merge(w.tab)
		}
	} else if err := serial(a.units); err != nil {
		return nil, err
	}
	// The direct path's units never look at the context, and the serial
	// loop only does before a unit: catch a cancellation during the last
	// ones.
	if err := ctxErr(a.ctx); err != nil {
		return nil, err
	}
	if a.finish != nil {
		a.finish()
	}
	reportPartial(a.opts.Collector, a.part, first.tab)
	return first.tab, nil
}

// close releases every worker, once.
func (a *partialAgg) close() {
	for _, w := range a.workers {
		w.close()
	}
	a.workers = nil
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

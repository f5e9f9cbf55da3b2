// Aggregate execution: the HashAgg(Final) operator and the partial
// aggregation it pushes down into the scan.
//
// The Final operator never receives row batches from a Partial
// iterator. It owns one partialAgg driver, which takes the Partial's
// input cut into units by newScanUnits — heap morsels, column groups —
// or as one unit, and gives every worker a private agg.Table and the
// Partial's own child pipeline, built once by buildBatchNode over the
// unit source's leaf, which the worker re-points at each unit it claims.
// A unit drains the pipeline into the table; the driver merges the
// tables. Three invariants make the finalized output — and the EXPLAIN
// ANALYZE counters — the serial run's at any DOP, on either storage
// format:
//
//   - partial states are order-independent (see internal/agg), so
//     neither the scheduling of units nor the merge order shows;
//   - every unit runs the serial run's operators, counting into the same
//     collector slots, and the warm prefix runs serially before any unit
//     is scheduled, so the frozen term order and the per-term counters do
//     not depend on the DOP;
//   - a heap page is read one page per retry attempt (pageReader), and a
//     failed attempt delivers no record, so a retried page never
//     double-counts into an accumulator.
package exec

import (
	"context"
	"fmt"
	"sync"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/plan"
	"minequery/internal/value"
)

// aggWorker is one worker of a partial aggregation: the table it
// accumulates into, the pipeline that feeds it, and the leaf under that
// pipeline it points at each unit (nil when the input is one unit, read
// by the pipeline's own leaf).
type aggWorker struct {
	tab  *agg.Table
	it   BatchIterator
	leaf unitReader
}

func (w *aggWorker) add(b Batch) {
	for _, t := range b {
		w.tab.Add(t)
	}
}

// unit runs unit i through the worker's pipeline into its table and
// returns the rows the unit scanned.
func (w *aggWorker) unit(ctx context.Context, i int) (int64, error) {
	if w.leaf == nil {
		return 0, drain(ctx, w.it, w.add)
	}
	w.leaf.point(i)
	err := drain(ctx, w.it, w.add)
	return w.leaf.scanned(), err
}

// partialAgg is the one partial-aggregate driver: it produces the merged
// partial state of one execution of a Partial node, for the Final
// operator above it or — partial-only — for a shard answering a
// scatter-gathered aggregate. Of its units, the first warm run serially,
// in order, on the first worker; the units are then sealed, and the rest
// run on the pool (at DOP > 1) or on the first worker.
type partialAgg struct {
	ctx     context.Context // the pool's, when there is one
	opts    Options
	part    *plan.HashAgg
	spec    *agg.Spec
	units   scanUnits // not cut: the input is one unit
	pool    *morselPool
	workers []*aggWorker
}

// newPartialAgg cuts the Partial's input and builds the workers: one, or
// one per pool goroutine when the units after the warm prefix go to a
// pool. A SeqScan under nothing but Filters, Predicts and Projects is cut
// by newScanUnits; any other input — index paths, constant scans — is
// one unit.
func newPartialAgg(ctx context.Context, c *catalog.Catalog, part *plan.HashAgg, opts Options) (*partialAgg, error) {
	a := &partialAgg{ctx: ctx, opts: opts, part: part}
	if scan, above := unitScan(part.Child); scan != nil {
		if t, ok := c.Table(scan.Table); ok {
			a.units = newScanUnits(t, scan, above, leafCols(c, t, part, opts.Collector), opts)
		}
	}
	n := 1
	if a.units.cut() && a.units.parallel() {
		a.pool = a.units.newPool(ctx)
		a.ctx, n = a.pool.ctx, a.pool.workers()
	}
	for len(a.workers) < n {
		w, err := a.newWorker(c)
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

// newWorker builds a worker around one build of the Partial's child:
// over a leaf of the units, which keeps its pooled storage across them,
// or over the plan's own leaf when the input is one unit.
func (a *partialAgg) newWorker(c *catalog.Catalog) (*aggWorker, error) {
	var leaf *unitLeaf
	w := &aggWorker{}
	if a.units.cut() {
		w.leaf = a.units.leaf(a.ctx, false)
		leaf = &unitLeaf{node: a.units.node(), it: w.leaf}
	}
	it, err := buildBatchNode(a.ctx, c, a.part, a.part.Child, a.opts, leaf)
	if err == nil {
		if err = a.resolve(it.Schema()); err != nil {
			it.Close()
		}
	}
	if err != nil {
		if w.leaf != nil {
			w.leaf.Close()
		}
		return nil, err
	}
	w.tab, w.it = agg.NewTable(a.spec), it
	return w, nil
}

// run executes the partial aggregation: the warm prefix, the seal, then
// the rest of the units on the morsel pool or serially, then the merge.
func (a *partialAgg) run() (*agg.Table, error) {
	first := a.workers[0]
	n, warm := a.units.count(), a.units.warm()
	for i := 0; i < warm; i++ {
		if _, err := first.unit(a.ctx, i); err != nil {
			return nil, err
		}
	}
	a.units.seal()
	if a.pool != nil {
		// The prefix's table goes on as the first worker's; a failed unit
		// stops the pool and the first failure wins.
		var (
			once sync.Once
			err  error
		)
		post := func(_ int, uerr error) {
			if uerr != nil {
				once.Do(func() { err = uerr })
				a.pool.stop()
			}
		}
		for _, w := range a.workers {
			a.pool.start(func(i int) (int64, error) { return w.unit(a.ctx, warm+i) }, post, nil)
		}
		a.pool.wg.Wait()
		if err != nil {
			return nil, err
		}
		for _, w := range a.workers[1:] {
			first.tab.Merge(w.tab)
		}
	} else {
		for i := warm; i < n; i++ {
			if _, err := first.unit(a.ctx, i); err != nil {
				return nil, err
			}
		}
	}
	a.units.report()
	reportPartial(a.opts.Collector, a.part, first.tab)
	return first.tab, nil
}

// close stops the pool and releases every worker, once.
func (a *partialAgg) close() {
	if a.pool != nil {
		a.pool.stop()
	}
	for _, w := range a.workers {
		w.it.Close()
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

// Aggregate execution: the HashAgg(Final) operator and the partial
// aggregation it pushes down into the scan.
//
// The Final operator never receives row batches from a Partial
// iterator. It owns one partialAgg driver, which takes the Partial's
// input cut into units by Bound.scanUnits — heap morsels, column groups —
// or as one unit, and gives every worker a private agg.Table and the
// Partial's own child pipeline, built once by Bound.build over the
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
	b       *Bound
	ord     int // the Partial's, in b
	spec    *agg.Spec
	units   scanUnits // not cut: the input is one unit
	pool    *morselPool
	workers []*aggWorker
}

// newPartialAgg cuts the input of the Partial at ordinal pi of b and
// builds the workers: one, or one per pool goroutine when the units
// after the warm prefix go to a pool. A SeqScan under nothing but
// Filters, Predicts and Projects is cut by scanUnits; any other input —
// index paths, constant scans — is one unit.
func newPartialAgg(ctx context.Context, b *Bound, pi int, opts Options) (*partialAgg, error) {
	a := &partialAgg{ctx: ctx, opts: opts, b: b, ord: pi, spec: b.nodes[pi].spec}
	if si, ai := b.unitScan(pi + 1); si >= 0 {
		a.units = b.scanUnits(si, ai, opts)
	}
	n := 1
	if a.units.cut() && a.units.parallel() {
		a.pool = a.units.newPool(ctx)
		a.ctx, n = a.pool.ctx, a.pool.workers()
	}
	for len(a.workers) < n {
		w, err := a.newWorker()
		if err != nil {
			a.close()
			return nil, err
		}
		a.workers = append(a.workers, w)
	}
	return a, nil
}

// unitScan returns the ordinal of the SeqScan at or under ordinal i when
// only row-at-a-time operators (Filter, Predict, Project) lie between,
// so that its input can be cut into units, and that of the operator
// directly above it (-1 when i is the scan); -1 and -1 otherwise.
func (b *Bound) unitScan(i int) (scan, above int) {
	above = -1
	for ; i < len(b.nodes); i++ {
		switch b.nodes[i].node.(type) {
		case *plan.SeqScan:
			return i, above
		case *plan.Filter, *plan.Predict, *plan.Project:
			above = i
		default:
			return -1, -1
		}
	}
	return -1, -1
}

// newWorker builds a worker around one build of the Partial's child:
// over a leaf of the units, which keeps its pooled storage across them,
// or over the plan's own leaf when the input is one unit.
func (a *partialAgg) newWorker() (*aggWorker, error) {
	var leaf *unitLeaf
	w := &aggWorker{}
	if a.units.cut() {
		w.leaf = a.units.leaf(a.ctx, false)
		leaf = &unitLeaf{node: a.units.node(), it: w.leaf}
	}
	it, err := a.b.build(a.ctx, a.ord+1, a.opts, leaf)
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
	reportPartial(a.opts.Collector, a.ord, first.tab)
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

// RunPartialAgg executes just the Partial half, part, of a split
// aggregation in b's tree and returns the merged partial state — what a
// shard sends back for the coordinator to merge.
func (b *Bound) RunPartialAgg(ctx context.Context, part *plan.HashAgg, opts Options) (*agg.Table, error) {
	b, err := b.live(opts.Collector)
	if err != nil {
		return nil, err
	}
	pi := b.ord(part)
	if pi < 0 {
		return nil, fmt.Errorf("exec: %s is not a node of the bound plan", plan.Describe(part))
	}
	return b.runPartial(ctx, pi, opts)
}

// runPartial runs the Partial at ordinal pi of b.
func (b *Bound) runPartial(ctx context.Context, pi int, opts Options) (*agg.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Collector.attach(b)
	a, err := newPartialAgg(ctx, b, pi, opts.fill())
	if err != nil {
		return nil, err
	}
	defer a.close()
	return a.run()
}

// reportPartial feeds the stats of the Partial at ordinal pi (it never
// runs as a batch iterator) and the merge counter.
func reportPartial(col *Collector, pi int, tab *agg.Table) {
	if col == nil {
		return
	}
	col.AggMerges.Add(tab.Merges())
	st := col.slot(pi)
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

// newBatchFinalAgg builds the Final at ordinal i of b over its Partial,
// the next node.
func newBatchFinalAgg(ctx context.Context, b *Bound, i int, opts Options) (BatchIterator, error) {
	partial, err := newPartialAgg(ctx, b, i+1, opts)
	if err != nil {
		return nil, err
	}
	return &batchFinalAgg{partial: partial, out: b.nodes[i].schema, size: opts.BatchSize}, nil
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

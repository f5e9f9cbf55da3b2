// Batch-at-a-time execution: BatchIterator is the one operator contract,
// and every plan node — scans, index accesses, filters, prediction
// joins, projections, limits, aggregates — implements it natively.
package exec

import (
	"context"
	"fmt"
	"runtime"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/fault"
	"minequery/internal/mining"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// Batch is an ordered group of tuples handed from a BatchIterator to its
// consumer. A batch and the tuples in it are valid until the next
// NextBatch or Close on the iterator that returned them, and no longer:
// the producer may decode the next batch over the same memory. Until
// then they are the consumer's to mutate — filter compacts the slice in
// place, predict repoints its elements — and the producer reads nothing
// back from them. A consumer that keeps a row past that point copies it.
//
// The rule is what lets a row an envelope rejects cost no heap, and a
// row that survives cost what the plan reads of it. The leaves build
// rows of the columns decodeMask marks and no others, under a schema
// narrowed to them (scanCols), in storage they reuse. There are three
// scan leaves — batchSeqScan over heap pages, groupScan over column
// groups, ridFetch over an index's RIDs — and every scan, serial or
// parallel, reads through them. A leaf takes its arena's chunks and its
// batch slice from the package's pools (arenaChunks, batchPool), reuses
// them for every batch, and gives them back at Close: its storage is
// valid until Close and then belongs to the next execution, so a
// prepared statement's second run decodes into the first one's memory.
// That holds for an aggregate worker's leaf too, which keeps its storage
// across the units it claims, since the worker consumes its own batches.
// An ordered worker's leaf alone hands each batch's storage off and
// starts the next batch in fresh storage (batchStore), because its
// batches change goroutines; CollectMatches fills a single row.
// batchFilter and batchLimit work in place, and so does
// batchPredict: every leaf gives its tuples predictRoom spare capacity,
// so the predicted class is appended where the row lies. batchProject
// narrows each row in place too. Only agg.Table.Add copies what it keeps,
// so HashAgg alone emits rows that are fresh; every other root hands the
// plan's consumer (RowSink) rows that are gone at the next NextBatch, and
// a consumer that keeps rows — RowBuffer — copies them.
type Batch = []value.Tuple

// BatchIterator produces tuples a batch at a time. Batches are never
// empty; done=true (with a nil batch) signals exhaustion. After done or
// an error the iterator must not be used again, except Close.
type BatchIterator interface {
	// Schema describes the tuples the iterator produces.
	Schema() *value.Schema
	// NextBatch returns the next batch of tuples and invalidates the
	// previous one (see Batch).
	NextBatch() (Batch, bool, error)
	// Close releases resources. It is safe to call more than once.
	Close()
}

// DefaultBatchSize is the target tuples per batch.
const DefaultBatchSize = 256

// DefaultMorselPages is the heap pages per parallel-scan morsel.
const DefaultMorselPages = 16

// Options tunes batch execution.
type Options struct {
	// DOP is the degree of parallelism for sequential scans: the number
	// of workers consuming page-range morsels. <=0 means 1 (serial).
	DOP int
	// BatchSize is the target tuples per batch (<=0: DefaultBatchSize).
	BatchSize int
	// MorselPages is the heap pages per scan morsel (<=0:
	// DefaultMorselPages).
	MorselPages int
	// Collector, when non-nil, gathers per-operator runtime statistics
	// and attributes storage I/O to the query (see Collector). Nil runs
	// the bare operators.
	Collector *Collector
	// Faults, when non-nil, is consulted at the executor's injection
	// sites (index seeks, morsel claims, batch boundaries); it does NOT
	// govern the storage layer, whose sites live on the heap itself (see
	// storage.Heap.SetFaults). Nil — the production state — reduces each
	// site to a nil-pointer check.
	Faults *fault.Injector
	// Retry bounds retries of transient failures (injected or real) in
	// page reads, RID lookups, and index seeks. The zero value disables
	// retrying.
	Retry fault.RetryPolicy
	// Clock drives retry backoff sleeps. Nil means the wall clock; tests
	// install a fault.FakeClock to assert backoff schedules exactly.
	Clock fault.Clock
}

// onRetry returns the retry observer feeding the collector's retry
// counter, or nil without a collector.
func (o Options) onRetry() func(error) {
	col := o.Collector // captured alone: the closure does not copy o
	if col == nil {
		return nil
	}
	return func(error) { col.Retries.Add(1) }
}

func (o Options) fill() Options {
	if o.DOP <= 0 {
		o.DOP = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.MorselPages <= 0 {
		o.MorselPages = DefaultMorselPages
	}
	return o
}

// DefaultOptions returns the standard batch-execution configuration:
// one scan worker per available CPU.
func DefaultOptions() Options {
	return Options{
		DOP:         runtime.GOMAXPROCS(0),
		BatchSize:   DefaultBatchSize,
		MorselPages: DefaultMorselPages,
	}
}

// BuildBatchCtx compiles a physical plan into a batch-iterator tree,
// with a cancellation context threaded into the scan leaves: a
// cancelled or timed-out ctx makes NextBatch return
// ctx's error (wrapped, so errors.Is matches context.Canceled /
// context.DeadlineExceeded), and morsel-scan workers stop claiming and
// decoding work promptly instead of finishing the table. The plan is
// bound for this one execution (bind).
func BuildBatchCtx(ctx context.Context, c *catalog.Catalog, n plan.Node, opts Options) (BatchIterator, error) {
	b, err := bind(c, n, opts.Collector)
	if err != nil {
		return nil, err
	}
	return b.start(ctx, opts)
}

// open builds b's tree for one execution under opts, from the Bound the
// live catalog says it runs (live).
func (b *Bound) open(ctx context.Context, opts Options) (BatchIterator, error) {
	b, err := b.live(opts.Collector)
	if err != nil {
		return nil, err
	}
	return b.start(ctx, opts)
}

// start builds b's tree for one execution under opts.
func (b *Bound) start(ctx context.Context, opts Options) (BatchIterator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Collector.attach(b)
	return b.build(ctx, 0, opts.fill(), nil)
}

// unitLeaf is a scan leaf built before the plan above it: an aggregate
// worker's, which the worker re-points at every unit it claims
// (aggexec.go). The build uses it for node — the SeqScan, or the Filter
// fused onto a columnar one — instead of building that node.
type unitLeaf struct {
	node plan.Node
	it   BatchIterator
}

// build instantiates the operator at ordinal i for one execution,
// recursing for its child, and, when a Collector is attached, wraps it
// with the per-node accounting shim. Everything it reads of the plan and
// the catalog was resolved by bind; what it makes is the execution's
// own. leaf, when non-nil, stands in for its node.
func (b *Bound) build(ctx context.Context, i int, opts Options, leaf *unitLeaf) (BatchIterator, error) {
	it, err := b.buildBare(ctx, i, opts, leaf)
	if err != nil {
		return nil, err
	}
	if col := opts.Collector; col != nil {
		it = &instrumented{child: it, st: col.slot(i)}
	}
	return it, nil
}

func (b *Bound) buildBare(ctx context.Context, i int, opts Options, leaf *unitLeaf) (BatchIterator, error) {
	bn := &b.nodes[i]
	if leaf != nil && bn.node == leaf.node {
		return leaf.it, nil
	}
	switch x := bn.node.(type) {
	case *plan.SeqScan:
		if u := b.scanUnits(i, -1, opts); u.cut() {
			return newOrderedScan(ctx, u), nil
		}
		s := newBatchSeqScan(ctx, b.table, b.cols, opts, false)
		s.seek(b.table.PartitionPageRanges(x.Partitions))
		return s, nil
	case *plan.Filter:
		// A unit leaf stands for the one scan under an aggregate worker's
		// pipeline, whatever the sidecar's freshness now: never fuse past it.
		if bn.prog != nil && leaf == nil {
			// Fuse filter and scan into one vectorized operator so the
			// predicate runs over selection vectors, not tuples. Falls
			// through to the row operators when the sidecar is stale.
			if core := newVecCore(b, i+1, i, opts); core != nil {
				return newOrderedScan(ctx, fusedUnits(b, i, core)), nil
			}
		}
		child, err := b.build(ctx, i+1, opts, leaf)
		if err != nil {
			return nil, err
		}
		f := &batchFilter{child: child, pred: x.Pred}
		if col := opts.Collector; col != nil {
			if base := col.envBaseline(x); base != nil {
				f.st, f.base = col.slot(i), base
			}
		}
		return f, nil
	case *plan.Project:
		child, err := b.build(ctx, i+1, opts, leaf)
		if err != nil || bn.ords == nil {
			return child, err
		}
		return &batchProject{child: child, ords: bn.ords, schema: bn.schema, vals: make(value.Tuple, len(bn.ords))}, nil
	case *plan.Predict:
		child, err := b.build(ctx, i+1, opts, leaf)
		if err != nil {
			return nil, err
		}
		return &batchPredict{
			child:   child,
			binding: mining.Binding{Model: bn.model.Model, Ordinals: bn.ords},
			schema:  bn.schema,
			buf:     make(value.Tuple, len(bn.ords)),
		}, nil
	case *plan.Limit:
		child, err := b.build(ctx, i+1, opts, leaf)
		if err != nil {
			return nil, err
		}
		return &batchLimit{child: child, n: x.N}, nil
	case *plan.HashAgg:
		if x.Phase != plan.AggFinal {
			return nil, fmt.Errorf("exec: HashAgg(partial) cannot be built standalone; it is owned by its Final")
		}
		return newBatchFinalAgg(ctx, b, i, opts)
	case *plan.ConstScan:
		return &constScan{schema: bn.schema}, nil
	case *plan.IndexSeek:
		// Index access paths materialize their RID lists here, at build
		// time; don't start that work for a dead query.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		rids, err := seekRIDs(ctx, b.table, x, opts, nil)
		if err != nil {
			return nil, err
		}
		return newRIDFetch(ctx, b.table, rids, b.cols, opts), nil
	case *plan.IndexUnion:
		rids, err := unionRIDs(ctx, b.table, x, opts)
		if err != nil {
			return nil, err
		}
		return newRIDFetch(ctx, b.table, rids, b.cols, opts), nil
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", bn.node)
}

// ctxErr wraps a context error so callers can both errors.Is-match the
// cause and see that execution (not planning) was interrupted.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("exec: query interrupted: %w", err)
	}
	return nil
}

// RowSink consumes the rows a plan execution produces, a batch at a time.
// It is the other end of the Batch contract, stated once:
//
//   - Begin opens an attempt. Whoever runs a statement may run it again
//     after rows were delivered — the engine re-runs a failed index path
//     on its fallback scan, the server re-prepares a plan that went stale
//     and sheds to a degraded one — so a sink discards at Begin whatever
//     it holds: the answer is what arrives after the last Begin.
//   - Batch hands over the next rows of the answer, in plan order. They
//     are the sink's to read and to mutate until it returns, and invalid
//     afterwards; a sink that keeps a row copies it. An error ends the
//     execution and is returned by whoever ran it.
//
// Nothing reaches the sink's caller unless the execution returns nil: a
// failure or a deadline between batches leaves a sink holding part of an
// answer, which its owner drops.
type RowSink interface {
	Begin()
	Batch(b Batch) error
}

// Drain is one attempt at a plan: it builds n and hands every batch it
// produces to sink, returning the schema of the rows delivered. It is
// the only loop that takes rows off a plan's root. Execution stops (and
// the ctx error is returned) as soon as cancellation is observed, which
// is at worst one batch after it fires. n is bound for this attempt
// alone; a plan run again is bound once (Bind) and run with Bound.Drain.
func Drain(ctx context.Context, c *catalog.Catalog, n plan.Node, opts Options, sink RowSink) (*value.Schema, error) {
	return drainInto(ctx, sink, func(ctx context.Context) (BatchIterator, error) {
		return BuildBatchCtx(ctx, c, n, opts)
	})
}

// Drain is exec.Drain for an execution of b.
func (b *Bound) Drain(ctx context.Context, opts Options, sink RowSink) (*value.Schema, error) {
	return drainInto(ctx, sink, func(ctx context.Context) (BatchIterator, error) {
		return b.open(ctx, opts)
	})
}

// drainInto begins an attempt on sink and drains the plan build makes
// into it.
func drainInto(ctx context.Context, sink RowSink, build func(context.Context) (BatchIterator, error)) (*value.Schema, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sink.Begin()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	it, err := build(ctx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if done {
			return it.Schema(), nil
		}
		if err := sink.Batch(b); err != nil {
			return nil, err
		}
	}
}

// RowBuffer is the RowSink that keeps the answer: every row copied out
// of its batch, a batch to an allocation, in plan order. A caller that
// knows how many rows to expect gives Rows that capacity.
type RowBuffer struct{ Rows []value.Tuple }

func (r *RowBuffer) Begin() { r.Rows = r.Rows[:0] }

func (r *RowBuffer) Batch(b Batch) error {
	copyRows(b)
	r.Rows = append(r.Rows, b...)
	return nil
}

// Discard is the RowSink of a caller that wants a plan run — its cost,
// its statistics, its row count — and none of its rows.
var Discard RowSink = discard{}

type discard struct{}

func (discard) Begin()            {}
func (discard) Batch(Batch) error { return nil }

// RunOpts builds and drains a plan batch-at-a-time with the given
// options, returning all produced tuples in plan order (parallel scans
// reassemble morsels in heap order, so results are deterministic at any
// DOP).
func RunOpts(c *catalog.Catalog, n plan.Node, opts Options) ([]value.Tuple, *value.Schema, error) {
	return RunCtx(context.Background(), c, n, opts)
}

// RunCtx is RunOpts under a cancellation context: Drain into a RowBuffer.
func RunCtx(ctx context.Context, c *catalog.Catalog, n plan.Node, opts Options) ([]value.Tuple, *value.Schema, error) {
	var out RowBuffer
	schema, err := Drain(ctx, c, n, opts, &out)
	if err != nil {
		return nil, nil, err
	}
	return out.Rows, schema, nil
}

// copyRows repoints every element of b at a copy of its tuple, all in
// one backing allocation.
func copyRows(b Batch) {
	n := 0
	for _, t := range b {
		n += len(t)
	}
	backing := make(value.Tuple, n)
	for i, t := range b {
		k := copy(backing, t)
		b[i], backing = backing[:k:k], backing[k:]
	}
}

// batchSeqScan streams a table heap page by page, decoding rows into
// batches on demand (no up-front materialization). The pages come from
// a list of page ranges — the whole heap for ordinary tables, the
// surviving partitions' page ranges for pruned partitioned scans, one
// morsel for a worker's leaf. Every batch is decoded into the scan's
// batchStore, so a pooled scan allocates nothing per row, per page or per
// batch once the pools are warm. A batch is BatchSize rows at most, read
// by one call to the scan's pageReader: whole pages, as many as fit, and
// a page that holds more than BatchSize rows alone is cut into batches
// of BatchSize rows, each resuming at the slot after the last.
type batchSeqScan struct {
	table   *catalog.Table
	opts    Options
	schema  *value.Schema
	morsels [][2]int // the units point picks from, for a worker's leaf
	ranges  [][2]int
	ri      int         // current range
	pages   *pageReader // where the scan stands within ranges[ri]
	store   batchStore
	read    int64 // rows returned since the last seek
	err     error
}

// newBatchSeqScan builds a heap scan leaf over nothing yet: seek or point
// gives it its pages.
func newBatchSeqScan(ctx context.Context, t *catalog.Table, cols scanCols, opts Options, handOff bool) *batchSeqScan {
	s := &batchSeqScan{table: t, opts: opts, schema: cols.schema,
		store: newBatchStore(cols.slot, opts.BatchSize, opts.BatchSize, handOff)}
	s.pages = newPageReader(ctx, t, opts, cols.need, s.fit, s.store.arena.next, s.collect)
	return s
}

// seek points the scan at the first page of ranges, keeping its storage.
func (s *batchSeqScan) seek(ranges [][2]int) {
	s.ranges, s.ri, s.read = ranges, 0, 0
	if len(ranges) > 0 {
		s.pages.seek(ranges[0][0])
	}
}

// point seeks the scan to morsel i.
func (s *batchSeqScan) point(i int) { s.seek(s.morsels[i : i+1]) }

func (s *batchSeqScan) scanned() int64 { return s.read }

func (s *batchSeqScan) Schema() *value.Schema { return s.schema }

// fit admits a page into the batch when the batch is empty, or when it
// has room left and the page's live rows fit in it.
func (s *batchSeqScan) fit(live int) bool {
	n := len(*s.store.rows)
	return n == 0 || n < s.opts.BatchSize && n+live <= s.opts.BatchSize
}

// collect takes a row into the batch, and stops the read once the batch
// is full: only a page fit admitted into an empty batch fills it
// mid-page, and the next batch resumes that page.
func (s *batchSeqScan) collect(_ storage.RID, _ []byte, tup value.Tuple) bool {
	*s.store.rows = append(*s.store.rows, tup)
	return len(*s.store.rows) < s.opts.BatchSize
}

func (s *batchSeqScan) NextBatch() (Batch, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	if ferr := s.opts.Faults.Hit(fault.SiteBatch); ferr != nil {
		s.err = fmt.Errorf("exec: scan %s: %w", s.table.Name, ferr)
		return nil, false, s.err
	}
	if s.ri >= len(s.ranges) {
		return nil, true, nil // exhausted, or closed and its storage given back
	}
	s.store.reset(s.opts.BatchSize)
	// A page fit refuses is the next batch's first, and a page the batch
	// filled up in goes on in the next at the slot it stopped at.
	for s.ri < len(s.ranges) {
		end := s.ranges[s.ri][1]
		if s.err = s.pages.read(end); s.err != nil {
			return nil, false, s.err
		}
		if s.pages.page < end {
			break
		}
		if s.ri++; s.ri < len(s.ranges) {
			s.pages.seek(s.ranges[s.ri][0])
		}
	}
	b := *s.store.rows
	if len(b) == 0 {
		return nil, true, nil
	}
	s.read += int64(len(b))
	return b, false, nil
}

// Close hands the store back.
func (s *batchSeqScan) Close() {
	s.ri = len(s.ranges)
	s.store.release()
}

// batchFilter drops tuples failing the predicate, in place: the batch's
// backing array is reused for the survivors.
// When envelope attribution is on (EXPLAIN ANALYZE), each rejected row
// is re-checked against the un-augmented baseline predicate to decide
// whether the added envelope or the query's own predicate pruned it.
type batchFilter struct {
	child BatchIterator
	pred  expr.Expr
	st    *OpStats
	base  expr.Expr
}

func (f *batchFilter) Schema() *value.Schema { return f.child.Schema() }

func (f *batchFilter) NextBatch() (Batch, bool, error) {
	s := f.child.Schema()
	for {
		b, done, err := f.child.NextBatch()
		if done || err != nil {
			return nil, done, err
		}
		kept := b[:0]
		for _, t := range b {
			if f.pred.Eval(s, t) {
				kept = append(kept, t)
			} else if f.base != nil {
				if f.base.Eval(s, t) {
					f.st.EnvRejected.Add(1)
				} else {
					f.st.ResidRejected.Add(1)
				}
			}
		}
		if len(kept) > 0 {
			return kept, false, nil
		}
	}
}

func (f *batchFilter) Close() { f.child.Close() }

// batchProject narrows columns for a whole batch at a time, in place:
// the rows are its to mutate (see Batch), and a projection keeps no more
// columns than its child's rows hold, since a schema names a column once.
// Each row's projected values are gathered, written back over its head
// and the row cut there, to its own capacity, so that a Predict above
// moves it by append instead of writing over what the row held.
type batchProject struct {
	child  BatchIterator
	ords   []int
	schema *value.Schema
	vals   value.Tuple // the row being narrowed's projected values
}

func (p *batchProject) Schema() *value.Schema { return p.schema }

func (p *batchProject) NextBatch() (Batch, bool, error) {
	b, done, err := p.child.NextBatch()
	if done || err != nil {
		return nil, done, err
	}
	w := len(p.ords)
	for i, t := range b {
		for j, o := range p.ords {
			p.vals[j] = t[o]
		}
		b[i] = t[:w:w]
		copy(b[i], p.vals)
	}
	return b, false, nil
}

func (p *batchProject) Close() { p.child.Close() }

// batchPredict appends the model's predicted class to every tuple of a
// batch (the batch-at-a-time PredictionJoin), in place: the batch is the
// consumer's to mutate, and every leaf left predictRoom spare capacity
// in its tuples. A row that has none (one from above a Project, say) is
// moved by append instead.
type batchPredict struct {
	child   BatchIterator
	binding mining.Binding
	schema  *value.Schema
	buf     value.Tuple
}

func (p *batchPredict) Schema() *value.Schema { return p.schema }

func (p *batchPredict) NextBatch() (Batch, bool, error) {
	b, done, err := p.child.NextBatch()
	if done || err != nil {
		return nil, done, err
	}
	for i, t := range b {
		b[i] = append(t, p.binding.PredictInto(t, p.buf))
	}
	return b, false, nil
}

func (p *batchPredict) Close() { p.child.Close() }

// batchLimit truncates the stream after n rows.
type batchLimit struct {
	child BatchIterator
	n     int64
	seen  int64
}

func (l *batchLimit) Schema() *value.Schema { return l.child.Schema() }

func (l *batchLimit) NextBatch() (Batch, bool, error) {
	if l.seen >= l.n {
		return nil, true, nil
	}
	b, done, err := l.child.NextBatch()
	if done || err != nil {
		return nil, done, err
	}
	if remaining := l.n - l.seen; int64(len(b)) > remaining {
		b = b[:remaining]
	}
	l.seen += int64(len(b))
	return b, false, nil
}

func (l *batchLimit) Close() { l.child.Close() }

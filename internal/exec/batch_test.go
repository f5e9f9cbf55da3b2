package exec

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// drainBatches pulls a batch iterator dry, checking the contract along
// the way: batches are never empty, and done comes with a nil batch. A
// batch is only valid until the next NextBatch, so its rows are copied.
func drainBatches(t *testing.T, it BatchIterator) []value.Tuple {
	t.Helper()
	defer it.Close()
	var out []value.Tuple
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if b != nil {
				t.Fatal("done=true must come with a nil batch")
			}
			return out
		}
		if len(b) == 0 {
			t.Fatal("NextBatch returned an empty batch without done")
		}
		copyRows(b)
		out = append(out, b...)
	}
}

// sameOrderedRows demands exact positional equality, not just the same
// multiset — the parallel scan promises deterministic heap order.
func sameOrderedRows(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestBatchRunMatchesTupleRun(t *testing.T) {
	c, _ := testDB(t, 3000)
	c.RegisterModel(catModel{}, nil)
	plans := []plan.Node{
		&plan.SeqScan{Table: "t"},
		&plan.Filter{Child: &plan.SeqScan{Table: "t"},
			Pred: expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(60)}},
		&plan.Project{Child: &plan.SeqScan{Table: "t"}, Cols: []string{"num", "cat"}},
		&plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "catmod", As: "m.cls"},
		&plan.Filter{
			Child: &plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "catmod", As: "m.cls"},
			Pred:  expr.Cmp{Col: "m.cls", Op: expr.OpEq, Val: value.Str("low")},
		},
		&plan.Limit{Child: &plan.SeqScan{Table: "t"}, N: 100},
		&plan.ConstScan{Table: "t"},
	}
	for _, p := range plans {
		want, wantSchema, err := refRun(c, p)
		if err != nil {
			t.Fatalf("%s: reference run: %v", plan.Explain(p), err)
		}
		for _, dop := range []int{1, 4} {
			got, gotSchema, err := RunOpts(c, p, Options{DOP: dop, BatchSize: 64})
			if err != nil {
				t.Fatalf("%s dop=%d: batch run: %v", plan.Explain(p), dop, err)
			}
			if gotSchema.String() != wantSchema.String() {
				t.Fatalf("%s dop=%d: schema %v, want %v", plan.Explain(p), dop, gotSchema, wantSchema)
			}
			if !sameOrderedRows(got, want) {
				t.Fatalf("%s dop=%d: %d rows, want %d (or order differs)",
					plan.Explain(p), dop, len(got), len(want))
			}
		}
	}
}

// TestSeqScanBatchWithinBatchSize: the serial heap scan cuts its batches
// at page boundaries without ever passing BatchSize — a page that would
// overflow the batch starts the next one — so its batch slice never
// regrows, while every page is still read once and every row returned.
func TestSeqScanBatchWithinBatchSize(t *testing.T) {
	_, tb := testDB(t, 6000)
	var victims []storage.RID
	tb.Heap.Scan(func(rid storage.RID, _ []byte) bool {
		if int(rid.Slot)%(int(rid.Page)%7+2) == 0 { // pages of uneven live counts
			victims = append(victims, rid)
		}
		return true
	})
	for _, rid := range victims {
		tb.Heap.Delete(rid)
	}
	deleted := len(victims)
	const size = 1000
	col := NewCollector()
	s := newBatchSeqScan(context.Background(), tb,
		scanCols{schema: tb.Schema, slot: tb.Schema.Len()}, Options{BatchSize: size, Collector: col}.fill(), false)
	s.seek(tb.PartitionPageRanges(nil))
	rows, batches := 0, 0
	for {
		b, done, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if len(b) > size || cap(b) != size {
			t.Fatalf("batch %d: %d rows in a slice of cap %d, BatchSize %d", batches, len(b), cap(b), size)
		}
		rows += len(b)
		batches++
	}
	if rows != 6000-deleted {
		t.Errorf("%d rows, heap has %d live", rows, 6000-deleted)
	}
	if pages := col.IO.SeqPageReads.Load(); int(pages) != tb.Heap.PageCount() || batches >= int(pages) {
		t.Errorf("%d pages read in %d batches, heap has %d pages", pages, batches, tb.Heap.PageCount())
	}
}

// buildUnder binds n with its leaf's rows shaped for root — a plan n is
// part of, or one it is not, to hand an operator a leaf that lacks what
// it reads — and builds it for one execution, leaf standing in for its
// node when non-nil.
func buildUnder(ctx context.Context, c *catalog.Catalog, root, n plan.Node, opts Options, leaf *unitLeaf) (BatchIterator, error) {
	b, err := bindUnder(c, n, root, opts.Collector)
	if err != nil {
		return nil, err
	}
	opts.Collector.attach(b)
	return b.build(ctx, 0, opts.fill(), leaf)
}

// buildScan builds the leaf a plan gets for a SeqScan of table t.
func buildScan(t *testing.T, c *catalog.Catalog, opts Options) BatchIterator {
	t.Helper()
	scan := &plan.SeqScan{Table: "t"}
	it, err := buildUnder(context.Background(), c, scan, scan, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestParallelScanMatchesSerialAfterDeletes(t *testing.T) {
	c, tb := testDB(t, 5000)
	// Punch holes so some pages are sparse and slot iteration must skip
	// deleted records inside morsels.
	var victims []storage.RID
	n := 0
	tb.Heap.Scan(func(rid storage.RID, _ []byte) bool {
		if n%3 == 0 {
			victims = append(victims, rid)
		}
		n++
		return true
	})
	for _, rid := range victims {
		tb.Heap.Delete(rid)
	}
	want := drainBatches(t, buildScan(t, c, Options{}))
	for _, dop := range []int{2, 4, 8} {
		got := drainBatches(t, buildScan(t, c, Options{DOP: dop, MorselPages: 3}))
		if len(got) != int(tb.Heap.Len()) {
			t.Fatalf("dop=%d: %d rows, heap has %d live", dop, len(got), tb.Heap.Len())
		}
		if !sameOrderedRows(got, want) {
			t.Fatalf("dop=%d: parallel scan order/content differs from serial", dop)
		}
	}
}

func TestParallelScanTinyTable(t *testing.T) {
	// Fewer pages than DOP*MorselPages: workers must handle having
	// nothing to claim.
	c, _ := testDB(t, 5)
	got, _, err := RunOpts(c, &plan.SeqScan{Table: "t"}, Options{DOP: 8, MorselPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d rows, want 5", len(got))
	}
}

func TestBatchLimitStopsParallelScanEarly(t *testing.T) {
	c, _ := testDB(t, 5000)
	p := &plan.Limit{Child: &plan.SeqScan{Table: "t"}, N: 10}
	got, _, err := RunOpts(c, p, Options{DOP: 4, MorselPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("limit over parallel scan returned %d rows", len(got))
	}
	// Limit preserves heap order, so the prefix must match the serial scan.
	want, _, err := RunOpts(c, p, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOrderedRows(got, want) {
		t.Fatal("limited parallel prefix differs from serial prefix")
	}
}

func TestBatchFilterSkipsEmptyBatches(t *testing.T) {
	c, _ := testDB(t, 2000)
	// A predicate matching nothing: the filter must keep pulling child
	// batches and report done, never an empty batch.
	p := &plan.Filter{Child: &plan.SeqScan{Table: "t"},
		Pred: expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(1000)}}
	it, err := BuildBatchCtx(context.Background(), c, p, Options{DOP: 2, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainBatches(t, it); len(rows) != 0 {
		t.Fatalf("filter matching nothing returned %d rows", len(rows))
	}
}

func TestParallelScanCloseWithoutDrain(t *testing.T) {
	c, _ := testDB(t, 5000)
	for i := 0; i < 20; i++ {
		it := buildScan(t, c, Options{DOP: 4, MorselPages: 1})
		if _, done, err := it.NextBatch(); err != nil || done {
			t.Fatalf("iter %d: first batch: done=%v err=%v", i, done, err)
		}
		it.Close() // abandon mid-scan; workers must wind down without leaking
	}
}

// batchSizes is a RowSink that keeps the size of every batch and a copy
// of every row.
type batchSizes struct {
	sizes []int
	rows  []value.Tuple
}

func (s *batchSizes) Begin() { s.sizes, s.rows = s.sizes[:0], s.rows[:0] }

func (s *batchSizes) Batch(b Batch) error {
	s.sizes = append(s.sizes, len(b))
	for _, t := range b {
		s.rows = append(s.rows, append(value.Tuple(nil), t...))
	}
	return nil
}

// TestSeqScanBatchNeverExceedsBatchSize: on a one-INT-column table, a
// heap page holds several batches' worth of rows, and the scan cuts it
// into batches of BatchSize rows at most, each resuming the page where
// the last stopped, at DOP 1 and 4: every live row is delivered once, in
// heap order. A prepared plan's second run allocates no more than its
// first: nothing grows past the batch the store was sized for.
func TestSeqScanBatchNeverExceedsBatchSize(t *testing.T) {
	c := catalog.New()
	tb, err := c.CreateTable("n", value.MustSchema(value.Column{Name: "v", Kind: value.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		rid, err := tb.Insert(value.Tuple{value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 { // dead slots inside the pages, some at a batch's cut
			if _, err := tb.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want []value.Tuple
	live := map[uint32]int{}
	if err := tb.Heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, live[rid.Page] = append(want, row), live[rid.Page]+1
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if live[0] <= DefaultBatchSize || len(live) < 3 {
		t.Fatalf("the fixture's first page holds %d live rows, of %d pages; the test needs more than %d, on several pages",
			live[0], len(live), DefaultBatchSize)
	}
	root := &plan.SeqScan{Table: "n"}
	for _, dop := range []int{1, 4} {
		b, err := Bind(c, root)
		if err != nil {
			t.Fatal(err)
		}
		var sink batchSizes
		if _, err := b.Drain(context.Background(), Options{DOP: dop}, &sink); err != nil {
			t.Fatal(err)
		}
		for i, n := range sink.sizes {
			if n > DefaultBatchSize {
				t.Fatalf("dop %d: batch %d holds %d rows, BatchSize is %d", dop, i, n, DefaultBatchSize)
			}
		}
		if len(sink.rows) != len(want) {
			t.Fatalf("dop %d: %d rows delivered, the heap holds %d", dop, len(sink.rows), len(want))
		}
		for i, row := range sink.rows {
			if !row.Equal(want[i]) {
				t.Fatalf("dop %d: row %d = %v, heap order has %v", dop, i, row, want[i])
			}
		}
		if raceEnabled {
			continue
		}
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b, err := Bind(c, root)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]uint64
			for i := range runs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := b.Drain(context.Background(), Options{DOP: dop}, Discard); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				runs[i] = after.TotalAlloc - before.TotalAlloc
			}
			t.Logf("dop %d: %d B the first run, %d B the second", dop, runs[0], runs[1])
			if runs[1] > runs[0] {
				t.Errorf("dop %d: a prepared scan's second run allocates %d B, its first %d B", dop, runs[1], runs[0])
			}
		}()
	}
}

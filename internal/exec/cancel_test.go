package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/fault"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/value"
)

// cancelFixture builds a table large enough to span many morsels.
func cancelFixture(t *testing.T, rows int) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	tb, err := cat.CreateTable("big", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "payload", Kind: value.KindString},
		value.Column{Name: "grp", Kind: value.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("row-%06d", i)), value.Int(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, tb
}

// groupedAgg is a grouped aggregate over a filtered scan of the fixture,
// so at DOP > 1 it runs over heap morsels or, with columnar set, over
// column groups (the filter, fused into the groups' leaf, gives those a
// warmup).
func groupedAgg(columnar bool) plan.Node {
	return aggPlan(&plan.Filter{
		Child: &plan.SeqScan{Table: "big", Columnar: columnar},
		Pred:  expr.Cmp{Col: "id", Op: expr.OpGe, Val: value.Int(0)},
	}, []string{"grp"}, []agg.Item{
		{Func: agg.None, Col: "grp"}, {Func: agg.Count, Star: true}, {Func: agg.Sum, Col: "id"},
	})
}

// aggScan is an aggregate over a scan and the number of units (pages or
// column groups, which is also what its IO counter counts) it is
// scheduled over.
type aggScan struct {
	name  string
	root  plan.Node
	units int64
}

// aggScans builds tb's columnar sidecar and returns the heap and the
// columnar aggregate scan of it.
func aggScans(t *testing.T, tb *catalog.Table) []aggScan {
	t.Helper()
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}
	return []aggScan{
		{"agg-heap", groupedAgg(false), int64(tb.Heap.PageCount())},
		{"agg-columnar", groupedAgg(true), int64(len(tb.ColumnStore().Groups))},
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	cat, tb := cancelFixture(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	roots := map[string]plan.Node{"seqscan": &plan.SeqScan{Table: "big"}}
	for _, a := range aggScans(t, tb) {
		roots[a.name] = a.root
	}
	for name, root := range roots {
		for _, dop := range []int{1, 4} {
			_, _, err := RunCtx(ctx, cat, root, Options{DOP: dop})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s DOP %d: err = %v, want context.Canceled", name, dop, err)
			}
		}
	}
}

func TestCancelMidParallelScan(t *testing.T) {
	cat, tb := cancelFixture(t, 30000)
	if tb.Heap.PageCount() < 8 {
		t.Fatalf("fixture too small: %d pages", tb.Heap.PageCount())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it, err := BuildBatchCtx(ctx, cat, &plan.SeqScan{Table: "big"}, Options{DOP: 4, MorselPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, done, err := it.NextBatch(); done || err != nil {
		t.Fatalf("first batch: done=%v err=%v", done, err)
	}
	cancel()
	// The iterator must surface the cancellation as an error, never run
	// to clean completion.
	var total int
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		if done {
			t.Fatal("scan completed cleanly despite cancellation")
		}
		total += len(b)
		if total > 40000 {
			t.Fatal("runaway iterator")
		}
	}
}

func TestDeadlineMidScan(t *testing.T) {
	cat, _ := cancelFixture(t, 30000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Burn the deadline so expiry is guaranteed regardless of scan speed.
	time.Sleep(2 * time.Millisecond)
	for _, dop := range []int{1, 4} {
		root := &plan.Filter{
			Child: &plan.SeqScan{Table: "big"},
			Pred:  expr.Cmp{Col: "id", Op: expr.OpGe, Val: value.Int(0)},
		}
		_, _, err := RunCtx(ctx, cat, root, Options{DOP: dop})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("DOP %d: err = %v, want context.DeadlineExceeded", dop, err)
		}
	}
}

// indexedCancelFixture is cancelFixture plus an index on id, so index
// access paths (seek, RID fetch, union) can be cancelled too.
func indexedCancelFixture(t *testing.T, rows int) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	cat, tb := cancelFixture(t, rows)
	if _, err := cat.CreateIndex("ix_id", "big", "id"); err != nil {
		t.Fatal(err)
	}
	tb.Analyze()
	return cat, tb
}

// fullSeek covers the whole index: enough RIDs that both the seek's
// stride check and the RID fetch's stride check are guaranteed to run.
func fullSeek() *plan.IndexSeek { return &plan.IndexSeek{Table: "big", Index: "ix_id"} }

func TestPreCancelledIndexSeek(t *testing.T) {
	cat, _ := indexedCancelFixture(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunCtx(ctx, cat, fullSeek(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancelDuringRIDFetch(t *testing.T) {
	cat, _ := indexedCancelFixture(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it, err := BuildBatchCtx(ctx, cat, fullSeek(), Options{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// The seeks succeed while the context is live; cancel once the RID
	// fetch is underway and insist the iterator stops with the typed
	// error instead of fetching the remaining 20k RIDs.
	if _, done, err := it.NextBatch(); done || err != nil {
		t.Fatalf("first batch: done=%v err=%v", done, err)
	}
	cancel()
	var total int
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		if done {
			t.Fatal("RID fetch completed cleanly despite cancellation")
		}
		total += len(b)
		if total > 25000 {
			t.Fatal("runaway iterator")
		}
	}
}

func TestDeadlineMidIndexUnion(t *testing.T) {
	cat, _ := indexedCancelFixture(t, 20000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // burn the deadline deterministically
	// The union checks the context between arms and inside each seek's
	// stride, so an expired deadline must surface before any fetching.
	union := &plan.IndexUnion{Table: "big", Seeks: []*plan.IndexSeek{
		{Table: "big", Index: "ix_id", Range: interval.Above(value.Int(0), false).Intersect(interval.Below(value.Int(5000), false))},
		{Table: "big", Index: "ix_id", Range: interval.Above(value.Int(10000), false).Intersect(interval.Below(value.Int(15000), false))},
	}}
	_, _, err := RunCtx(ctx, cat, union, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelStopsWorkers asserts promptness: after cancellation the
// morsel workers stop claiming work, so the heap's page-read counter
// stops well short of a full scan.
func TestCancelStopsWorkers(t *testing.T) {
	cat, tb := cancelFixture(t, 150000)
	pages := tb.Heap.PageCount()
	ctx, cancel := context.WithCancel(context.Background())
	col := NewCollector()
	it, err := BuildBatchCtx(ctx, cat, &plan.SeqScan{Table: "big"}, Options{DOP: 2, MorselPages: 1, BatchSize: 64, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, done, err := it.NextBatch(); done || err != nil {
		t.Fatalf("first batch: done=%v err=%v", done, err)
	}
	cancel()
	for {
		if _, done, err := it.NextBatch(); err != nil || done {
			break
		}
	}
	// Give stragglers a moment to observe cancellation, then snapshot.
	time.Sleep(20 * time.Millisecond)
	read := col.IO.SeqPageReads.Load()
	if read >= int64(pages) {
		t.Errorf("workers read %d of %d pages after cancellation; expected an early stop", read, pages)
	}
}

// hookClock is an injector clock whose injected latency is a callback,
// so a Delay rule runs test code at an exact hit of its site.
type hookClock struct {
	fault.Clock
	sleep func()
}

func (c hookClock) Sleep(time.Duration) { c.sleep() }

// park holds a worker at a fault site until release is closed — or, so
// that a worker parked before the consumer's first unit is done cannot
// hang the test, for ten seconds.
func park(release <-chan struct{}) {
	select {
	case <-release:
	case <-time.After(10 * time.Second):
	}
}

// TestCancelFlagStopsDecodingWithinOneBatch pins how far a worker reads
// once the consumer closes a parallel scan (LIMIT satisfied) and the
// pool's stop cancels the context its leaves read under.
//
//   - heap: every page read after the workers' first is held — past the
//     page reader's check before the page — until the scan is closed;
//     each worker then reads a page of far more than BatchSize rows with
//     the stop already raised, and may decode up to BatchSize rows more,
//     stopping mid-page, but must not decode on: the page reader checks
//     its context every BatchSize rows.
//   - columnar: every worker's second claim is held until the scan is
//     closed; each then enters its group with the stop raised, and must
//     reconstruct neither it nor any group it claims after: the worker
//     checks its context before every batch, so a worker reconstructs at
//     most the group it is in at the close.
func TestCancelFlagStopsDecodingWithinOneBatch(t *testing.T) {
	const workers, batchSize = 4, 4
	// A collector wraps every operator in an instrumented shim.
	bare := func(it BatchIterator) BatchIterator {
		if in, ok := it.(*instrumented); ok {
			return in.child
		}
		return it
	}
	scanOf := func(it BatchIterator) *orderedScan { return bare(bare(it).(*batchLimit).child).(*orderedScan) }
	firstBatch := func(t *testing.T, it BatchIterator) {
		t.Helper()
		if _, done, err := it.NextBatch(); done || err != nil {
			t.Fatalf("first batch: done=%v err=%v", done, err)
		}
	}
	t.Run("heap", func(t *testing.T) {
		cat, _ := cancelFixture(t, 30000)
		var reads atomic.Int64
		held, closed := make(chan struct{}, workers), make(chan struct{})
		cat.SetFaults(fault.NewInjector(1, fault.Rule{Site: fault.SitePageReadSeq, EveryN: 1, Delay: time.Nanosecond}).
			WithClock(hookClock{fault.RealClock(), func() {
				if reads.Add(1) > workers {
					select {
					case held <- struct{}{}:
					default: // a worker parked again after its timeout
					}
					park(closed)
				}
			}}))
		defer cat.SetFaults(nil)
		root := &plan.Limit{N: 1, Child: &plan.SeqScan{Table: "big"}}
		col := NewCollector()
		it, err := BuildBatchCtx(context.Background(), cat, root, Options{DOP: workers, MorselPages: 1, BatchSize: batchSize, Collector: col})
		if err != nil {
			t.Fatal(err)
		}
		firstBatch(t, it)
		for w := 0; w < workers; w++ {
			select {
			case <-held:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d workers reached a held page read; the test is vacuous", w, workers)
			}
		}
		it.Close()
		atClose := col.IO.TupleReads.Load()
		close(closed)
		scanOf(it).pool.wg.Wait()
		if extra := col.IO.TupleReads.Load() - atClose; extra > workers*batchSize {
			t.Errorf("workers decoded %d tuples after Close, want at most %d (one batch each)", extra, workers*batchSize)
		}
	})
	t.Run("columnar", func(t *testing.T) {
		cat, tb := cancelFixture(t, 30000)
		if err := tb.EnableColumnar(); err != nil {
			t.Fatal(err)
		}
		var claims atomic.Int64
		closed := make(chan struct{})
		in := fault.NewInjector(1, fault.Rule{Site: fault.SiteMorselClaim, EveryN: 1, Delay: time.Nanosecond}).
			WithClock(hookClock{fault.RealClock(), func() {
				if claims.Add(1) > workers {
					park(closed)
				}
			}})
		root := &plan.Limit{N: 1, Child: &plan.SeqScan{Table: "big", Columnar: true}}
		it, err := BuildBatchCtx(context.Background(), cat, root, Options{DOP: workers, BatchSize: batchSize, Faults: in})
		if err != nil {
			t.Fatal(err)
		}
		firstBatch(t, it)
		scan := scanOf(it)
		if groups := len(scan.core.groups); groups < 3*workers {
			t.Fatalf("%d column groups; the test needs more than the workers can hold", groups)
		}
		it.Close()
		atClose := scan.core.processed.Load()
		close(closed)
		scan.pool.wg.Wait()
		if extra := scan.core.processed.Load() - atClose; extra > workers {
			t.Errorf("workers reconstructed %d groups after Close, want at most %d (one each)", extra, workers)
		}
	})
}

// TestCancelAndFaultsInAggregateScan covers the failure surface of the
// partial aggregate's units at DOP 4: a cancellation, an injected failure
// at the second unit claim, or one at the second pass through a scan
// leaf's batch site — which every unit passes at least once — fails the
// query with the typed error, stops the sibling workers well short of the
// table, and leaves none running.
func TestCancelAndFaultsInAggregateScan(t *testing.T) {
	cat, tb := cancelFixture(t, 150000)
	for _, a := range aggScans(t, tb) {
		for _, fc := range []struct {
			name string
			rule fault.Rule
			want error
		}{
			{"cancel-mid-run", fault.Rule{Site: fault.SiteMorselClaim, EveryN: 1, Delay: time.Nanosecond}, context.Canceled},
			{"claim-fault", fault.Rule{Site: fault.SiteMorselClaim, OnHit: 2, Err: fault.ErrInjected}, fault.ErrInjected},
			{"batch-fault", fault.Rule{Site: fault.SiteBatch, OnHit: 2, Err: fault.ErrInjected}, fault.ErrInjected},
		} {
			t.Run(a.name+"/"+fc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Every claim passes the hook, one at a time, and the second
				// cancels: a worker preempted on its way to cancelling cannot
				// let the others drain the table first.
				var mu sync.Mutex
				claims := 0
				in := fault.NewInjector(1, fc.rule).WithClock(hookClock{fault.RealClock(), func() {
					mu.Lock()
					defer mu.Unlock()
					if claims++; claims == 2 {
						cancel()
					}
				}})
				col := NewCollector()
				_, _, err := RunCtx(ctx, cat, a.root, Options{DOP: 4, MorselPages: 1, Collector: col, Faults: in})
				if !errors.Is(err, fc.want) {
					t.Fatalf("err = %v, want %v", err, fc.want)
				}
				if fc.want == context.Canceled && !strings.Contains(err.Error(), "query interrupted") {
					t.Errorf("cancellation not wrapped as an interrupted query: %v", err)
				}
				read := col.IO.SeqPageReads.Load()
				if read >= a.units {
					t.Errorf("workers read %d of %d units after the failure; expected an early stop", read, a.units)
				}
				// Same settling check as TestCancelStopsWorkers: the driver
				// joins its workers, so nothing may still be reading.
				time.Sleep(20 * time.Millisecond)
				if later := col.IO.SeqPageReads.Load(); later != read {
					t.Errorf("a worker outlived the query: reads went %d -> %d after it returned", read, later)
				}
			})
		}
	}
}

// TestRetryInAggregateScanNeverDoubleCounts: transient page-read
// failures under a retry policy are absorbed by the heap aggregate scan
// — retries are counted and the finalized rows are byte-identical to
// the fault-free run, so no retried page reached an accumulator twice.
func TestRetryInAggregateScanNeverDoubleCounts(t *testing.T) {
	cat, _ := cancelFixture(t, 20000)
	root := groupedAgg(false)
	opts := Options{DOP: 4, MorselPages: 2, Retry: fault.RetryPolicy{MaxAttempts: 3}}
	want, _, err := RunOpts(cat, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetFaults(fault.NewInjector(1, fault.Rule{Site: fault.SitePageReadSeq, EveryN: 3, Err: fault.ErrInjected}))
	defer cat.SetFaults(nil)
	opts.Collector = NewCollector()
	got, _, err := RunOpts(cat, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Collector.Retries.Load() == 0 {
		t.Fatal("no retries counted: the fault never fired")
	}
	if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatalf("aggregate differs after retried page reads\n got %v\nwant %v", got, want)
	}
}

package exec

// Tests of the scan storage pools (arenaChunks, batchPool): a serial
// leaf's arena and batch slice come from them and go back at Close, so
// that a second execution decodes into the first one's memory; a slot is
// never handed to two live leaves, however often a leaf is closed; and
// the pools keep no more than an execution's storage across a
// collection. The allocation tests run on one P with no collection, as
// checkAllocFlat does: what a recycle.Pool holds beyond its one shared
// slot stays on the P that put it, and two collections empty it.

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// chunkBytes is the size of one arena chunk.
const chunkBytes = uint64(arenaChunkLen * unsafe.Sizeof(value.Value{}))

// storageCase is a plan whose execution runs one kind of serial leaf.
type storageCase struct {
	kind string
	c    *catalog.Catalog
	root plan.Node
	opts Options
	// runs reports whether the built plan runs the kind named, so that a
	// fallback cannot make the case vacuous.
	runs func(BatchIterator) bool
	// between, when non-nil, runs after the build and before the drain.
	between func(BatchIterator)
}

// storageCases returns one case per serial leaf kind: the heap scan, the
// index fetch (also over rows deleted between its seek and its fetch),
// the columnar scan, and the heap and columnar aggregate workers' leaves.
// Each reads id and num alone, so no row builds a string.
func storageCases(t *testing.T) []storageCase {
	cc, _ := columnarDB(t, 4000)
	ic, itb := testDB(t, 16000)
	idNum := func(child plan.Node) plan.Node { return &plan.Project{Child: child, Cols: []string{"id", "num"}} }
	all := expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(0)}
	seekC3 := func() plan.Node {
		return &plan.IndexSeek{Table: "t", Index: "ix_cat", EqVals: []value.Value{value.Str("c3")}}
	}
	under := func(it BatchIterator) BatchIterator { return it.(*batchProject).child }
	worker := func(it BatchIterator) BatchIterator { return it.(*batchFinalAgg).partial.workers[0].it }
	return []storageCase{
		{kind: "heap scan", c: cc, root: idNum(&plan.SeqScan{Table: "t"}), opts: Options{DOP: 1},
			runs: func(it BatchIterator) bool { _, ok := under(it).(*batchSeqScan); return ok }},
		{kind: "index fetch", c: ic, root: idNum(seekC3()), opts: Options{DOP: 1},
			runs: func(it BatchIterator) bool { _, ok := under(it).(*ridFetch); return ok }},
		{kind: "index fetch over deleted rows", c: ic, root: idNum(seekC3()), opts: Options{DOP: 1},
			runs: func(it BatchIterator) bool { _, ok := under(it).(*ridFetch); return ok },
			between: func(it BatchIterator) {
				for i, rid := range under(it).(*ridFetch).rids {
					if i%2 == 1 {
						if _, err := itb.Delete(rid); err != nil {
							t.Fatal(err)
						}
					}
				}
			}},
		{kind: "columnar scan", c: cc, root: idNum(&plan.Filter{Child: &plan.SeqScan{Table: "t", Columnar: true}, Pred: all}),
			opts: Options{DOP: 1},
			runs: func(it BatchIterator) bool { _, ok := under(it).(*orderedScan); return ok }},
		// Batches of 1024 rows, so that no page overflows a worker's batch
		// slice: which of the four a page lands in is the scheduler's.
		{kind: "heap aggregate worker", c: cc, opts: Options{DOP: 4, MorselPages: 1, BatchSize: 1024},
			root: aggPlan(&plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: all}, nil,
				[]agg.Item{{Func: agg.Count, Star: true}, {Func: agg.Sum, Col: "num"}}),
			runs: func(it BatchIterator) bool {
				f, ok := worker(it).(*batchFilter)
				if ok {
					_, ok = f.child.(*batchSeqScan)
				}
				return ok && len(it.(*batchFinalAgg).partial.workers) == 4
			}},
		{kind: "columnar aggregate worker", c: cc, opts: Options{DOP: 1},
			root: aggPlan(&plan.Project{Cols: []string{"num"}, Child: &plan.Filter{Child: &plan.SeqScan{Table: "t", Columnar: true}, Pred: all}},
				nil, []agg.Item{{Func: agg.Sum, Col: "num"}}),
			runs: func(it BatchIterator) bool {
				p, ok := worker(it).(*batchProject)
				if ok {
					_, ok = p.child.(*groupScan)
				}
				return ok
			}},
	}
}

// buildCase builds the case's plan, checking that it runs its kind.
func buildCase(t *testing.T, tc storageCase) BatchIterator {
	t.Helper()
	it, err := BuildBatchCtx(context.Background(), tc.c, tc.root, tc.opts)
	if err != nil {
		t.Fatalf("%s: %v", tc.kind, err)
	}
	if !tc.runs(it) {
		t.Fatalf("%s: the plan built %T, not the leaf named", tc.kind, it)
	}
	return it
}

// drainCount drains it without keeping a row and returns how many it
// produced.
func drainCount(t *testing.T, it BatchIterator) int {
	t.Helper()
	n := 0
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return n
		}
		n += len(b)
	}
}

// TestAllocScanStorageRecycled: the second execution of each serial
// leaf kind allocates less than one arena chunk — no arena, however many
// chunks its batches take, and nothing for a row the index fetch finds
// deleted. An execution here is the drain and the Close of a built plan:
// the build's operators and RID lists are not the leaf's storage.
func TestAllocScanStorageRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := storageCases(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range cases {
		execute := func() (uint64, int) {
			it := buildCase(t, tc)
			if tc.between != nil {
				tc.between(it)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rows := drainCount(t, it)
			it.Close()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, rows
		}
		first, rows := execute()
		second, _ := execute()
		t.Logf("%s: %d rows; first execution %d B, second %d B", tc.kind, rows, first, second)
		if rows == 0 {
			t.Fatalf("%s: no rows; the case is vacuous", tc.kind)
		}
		if second >= chunkBytes {
			t.Errorf("%s: the second execution allocated %d B, an arena chunk is %d B: the leaf's storage was not recycled",
				tc.kind, second, chunkBytes)
		}
	}
}

// TestAliasScanStorageReleasedOnce: a leaf closed twice gives its
// storage back once. After it, two leaves of its kind, both live, hold
// batches that share no row slot and no batch slice: scribbling over
// everything one was handed, spare capacity included, leaves the other's
// rows as they were. (An aggregate's leaves hand their batches to no
// one outside it; its kinds are left out.) And an ordered worker's leaf,
// whose batches wait on the consumer's goroutine, hands them off: no row
// slot or batch slice it served ever reaches the pools, even once the
// scan is closed mid-run and its workers have exited.
func TestAliasScanStorageReleasedOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range storageCases(t) {
		if _, isAgg := tc.root.(*plan.HashAgg); isAgg || tc.between != nil {
			continue
		}
		first := func(it BatchIterator) Batch {
			b, done, err := it.NextBatch()
			if err != nil || done {
				t.Fatalf("%s: first batch: done=%v err=%v", tc.kind, done, err)
			}
			return b
		}
		closed := buildCase(t, tc)
		first(closed)
		closed.Close()
		closed.Close()

		x, y := buildCase(t, tc), buildCase(t, tc)
		bx, by := first(x), first(y)
		want := make([]value.Tuple, len(by))
		for i, row := range by {
			want[i] = row.Clone()
		}
		poisoned := value.Tuple{poison}
		for i, row := range bx {
			full := row[:cap(row)]
			for j := range full {
				full[j] = poison
			}
			bx[i] = poisoned
		}
		for i, row := range by {
			if !row.Equal(want[i]) {
				t.Fatalf("%s: row %d of one live leaf changed when the other's batch was scribbled over: %v, was %v",
					tc.kind, i, row, want[i])
			}
		}
		x.Close()
		y.Close()
	}

	c, _ := columnarDB(t, 6*storage.ColGroupRows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // whatever a worker gives back is on this P
	for _, tc := range []struct {
		kind string
		scan *plan.SeqScan
		opts Options
	}{
		{"heap", &plan.SeqScan{Table: "t"}, Options{DOP: 4, MorselPages: 1, BatchSize: 64}},
		{"columnar", &plan.SeqScan{Table: "t", Columnar: true}, Options{DOP: 4, BatchSize: 64}},
	} {
		runtime.GC()
		runtime.GC() // the pools hold nothing
		it, err := BuildBatchCtx(context.Background(), c, tc.scan, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		o, ok := it.(*orderedScan)
		if !ok || o.warm() != 0 || !o.parallel() {
			t.Fatalf("%s: built %T, not a scan whose every unit is a worker's", tc.kind, it)
		}
		var served []unsafe.Pointer // the first row slot and the slice of every batch served
		for len(served) < 20 {
			b, done, err := it.NextBatch()
			if err != nil || done {
				t.Fatalf("%s: batch %d: done=%v err=%v", tc.kind, len(served)/2, done, err)
			}
			served = append(served, unsafe.Pointer(unsafe.SliceData(b[0])), unsafe.Pointer(unsafe.SliceData(b)))
		}
		it.Close()
		o.pool.wg.Wait()
		within := func(lo unsafe.Pointer, size uintptr) bool {
			for _, p := range served {
				if uintptr(p) >= uintptr(lo) && uintptr(p) < uintptr(lo)+size {
					return true
				}
			}
			return false
		}
		for k := 0; k < 512; k++ {
			chunk := arenaChunks.Get()
			b := batchPool.Get()
			if within(unsafe.Pointer(chunk), uintptr(chunkBytes)) ||
				cap(*b) > 0 && within(unsafe.Pointer(unsafe.SliceData(*b)), uintptr(cap(*b))*unsafe.Sizeof(value.Tuple{})) {
				t.Fatalf("%s: storage an ordered worker handed off reached the pools", tc.kind)
			}
		}
		runtime.KeepAlive(served)
	}
}

// TestFootprintScanPool: the pools keep what an execution needs and no
// more. After 1,000 executions and one collection — which leaves what
// the pools hold in their victim caches — the live heap exceeds its size
// before the first execution, with the pools empty, by less than two
// executions' storage: the bytes an execution allocates from empty pools
// beyond what it allocates from warm ones.
func TestFootprintScanPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, _ := columnarDB(t, 4000)
	root := &plan.Project{Child: &plan.SeqScan{Table: "t"}, Cols: []string{"id", "num"}}
	execute := func() {
		if _, err := Drain(context.Background(), c, root, Options{DOP: 1}, Discard); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cold := coldAllocatedBy(t, execute)
	warm := allocatedBy(t, execute)
	if cold <= warm {
		t.Fatalf("an execution allocated %d B from empty pools and %d B from warm ones: nothing is pooled", cold, warm)
	}
	storage := cold - warm

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 1000; i++ {
		execute()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c) // live in both measurements
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("an execution's storage: %d B; live heap after 1,000 executions and a collection: %+d B", storage, grown)
	if grown >= 2*int64(storage) {
		t.Fatalf("the live heap grew by %d B over 1,000 executions, an execution's storage is %d B: the pools keep more than they hand out",
			grown, storage)
	}
}

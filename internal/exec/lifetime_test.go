package exec

// Tests of the batch lifetime rule (see Batch): a batch and its tuples
// are valid until the next NextBatch on the iterator that returned them,
// and the consumer may do what it likes with them until then.
//
//   - the aliasing sweep scribbles over every batch before asking for the
//     next, so an operator that re-serves or reads back a transient row
//     returns sentinels where the oracle has data;
//   - the allocation-shape tests pin what the rule buys: what a scan
//     allocates follows the rows that survive, not the rows it reads;
//   - the decode-mask tests pin that every operator still sees every
//     column it reads when the scan decodes only those.

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// raceEnabled is set by race_test.go: the race detector allocates on the
// program's behalf, so byte-count assertions skip under it.
var raceEnabled bool

var poison = value.Str("\x00scribbled")

// runScribbled drains n the way a hostile but law-abiding consumer
// would: it copies each batch out, then overwrites every value of every
// tuple it was handed, and every element of the batch slice, before
// calling NextBatch again.
func runScribbled(t *testing.T, c *catalog.Catalog, n plan.Node, opts Options) []value.Tuple {
	t.Helper()
	it, err := BuildBatch(c, n, opts)
	if err != nil {
		t.Fatalf("build %s: %v", plan.Signature(n), err)
	}
	defer it.Close()
	poisoned := value.Tuple{poison}
	var out []value.Tuple
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			t.Fatalf("run %s: %v", plan.Signature(n), err)
		}
		if done {
			return out
		}
		for i, row := range b {
			out = append(out, row.Clone())
			for j := range row {
				row[j] = poison
			}
			b[i] = poisoned
		}
	}
}

// checkAliased runs n through RunOpts and through runScribbled and
// demands the same rows in the same order from both, and none of the
// sentinel's: RunOpts is Drain into the RowSink that keeps rows, and so
// owes each a copy (no root but an aggregate hands out rows that last —
// a Project narrows every batch into the same buffer); the scribbling
// drain is the proof that no operator depends on its consumer being
// gentle. It returns RunOpts' rows.
func checkAliased(t *testing.T, c *catalog.Catalog, n plan.Node, opts Options) []value.Tuple {
	t.Helper()
	got, _, err := RunOpts(c, n, opts)
	if err != nil {
		t.Fatalf("run %s: %v", plan.Signature(n), err)
	}
	scribbled := runScribbled(t, c, n, opts)
	if !sameOrderedRows(scribbled, got) {
		t.Fatalf("%s dop=%d: scribbling over served batches changed the answer (%d rows, RunOpts %d)",
			plan.Signature(n), opts.DOP, len(scribbled), len(got))
	}
	for _, row := range got {
		for _, v := range row {
			if value.Equal(v, poison) {
				t.Fatalf("%s dop=%d: a served row was handed out again: %v", plan.Signature(n), opts.DOP, row)
			}
		}
	}
	return got
}

// TestAliasSweepOperators covers the operator shapes the optimizer's
// plans in planequiv_test.go do not produce — Project, Limit, chained
// prediction joins, aggregates, index paths under a Predict — against
// the per-row oracle at DOP 1 and 4. (equivCheck and the other harnesses
// of planequiv_test.go go through checkAliased too, so every access-path
// shape there is part of the sweep.)
func TestAliasSweepOperators(t *testing.T) {
	c, _ := testDB(t, 3000)
	c.RegisterModel(catModel{}, nil)
	scan := func() plan.Node { return &plan.SeqScan{Table: "t"} }
	predict := func(child plan.Node) plan.Node {
		return &plan.Predict{Child: child, Model: "catmod", As: "m.cls"}
	}
	low := expr.Cmp{Col: "m.cls", Op: expr.OpEq, Val: value.Str("low")}
	numGe := expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(30)}
	plans := []plan.Node{
		scan(),
		&plan.Filter{Child: scan(), Pred: numGe},
		&plan.Project{Child: scan(), Cols: []string{"num", "cat"}},
		&plan.Project{Child: &plan.Filter{Child: scan(), Pred: numGe}, Cols: []string{"id"}},
		predict(scan()),
		&plan.Filter{Child: predict(&plan.Filter{Child: scan(), Pred: numGe}), Pred: low},
		&plan.Project{Child: &plan.Filter{Child: predict(&plan.Filter{Child: scan(), Pred: numGe}), Pred: low},
			Cols: []string{"id", "m.cls"}},
		&plan.Limit{Child: &plan.Filter{Child: predict(scan()), Pred: low}, N: 700},
		&plan.Limit{Child: &plan.Project{Child: scan(), Cols: []string{"cat"}}, N: 300},
		// A Predict above a Project gets rows cut to their own capacity out
		// of the Project's buffer: it must move each by append, not widen it
		// over its neighbour's first column.
		predict(&plan.Project{Child: scan(), Cols: []string{"num", "id"}}),
		&plan.Limit{N: 900, Child: &plan.Filter{Pred: low,
			Child: predict(&plan.Project{Child: &plan.Filter{Child: scan(), Pred: numGe}, Cols: []string{"id", "num"}})}},
		&plan.ConstScan{Table: "t"},
	}
	for _, p := range plans {
		want := refRows(t, c, p)
		for _, dop := range []int{1, 4} {
			if got := checkAliased(t, c, p, Options{DOP: dop, BatchSize: 64}); !sameOrderedRows(got, want) {
				t.Fatalf("%s dop=%d: %d rows, oracle %d (or order differs)", plan.Signature(p), dop, len(got), len(want))
			}
		}
	}
	// A full index seek under the widening Predict: the oracle's rows are
	// the scan's, in key order instead of heap order.
	viaIndex := &plan.Filter{Child: predict(&plan.IndexSeek{Table: "t", Index: "ix_num"}), Pred: low}
	want := refRows(t, c, &plan.Filter{Child: predict(scan()), Pred: low})
	if got := checkAliased(t, c, viaIndex, Options{BatchSize: 64}); !sameRows(got, want) {
		t.Fatalf("%s: %d rows, oracle %d", plan.Signature(viaIndex), len(got), len(want))
	}

	// Prediction joins widen a leaf's rows where they lie: the scribbling
	// drain overwrites the widened rows of every leaf that leaves room —
	// the index fetch, and the columnar scan both while it reuses its arena
	// (the warm-up groups, all of them at DOP 1) and once its groups come
	// off the pool — under two chained joins and a filter between them.
	cc, ctb := columnarDB(t, 5*storage.ColGroupRows-900)
	cc.RegisterModel(catModel{}, nil)
	low2 := expr.Cmp{Col: "m2.cls", Op: expr.OpEq, Val: value.Str("low")}
	chained := func(leaf plan.Node) plan.Node {
		return &plan.Filter{Pred: low2, Child: &plan.Predict{Model: "catmod", As: "m2.cls",
			Child: &plan.Filter{Pred: low, Child: predict(leaf)}}}
	}
	colScan := func() plan.Node { return &plan.SeqScan{Table: ctb.Name, Columnar: true} }
	wantChained := refRows(t, cc, chained(scan()))
	if len(wantChained) == 0 {
		t.Fatal("the chained prediction joins keep nothing; the fixture is degenerate")
	}
	for _, tc := range []struct {
		p       plan.Node
		ordered bool
	}{
		{chained(colScan()), true},
		{chained(&plan.Filter{Child: colScan(), Pred: numGe}), true},
		{&plan.Project{Child: chained(colScan()), Cols: []string{"id", "m.cls", "m2.cls"}}, true},
		{&plan.Limit{Child: chained(colScan()), N: 3000}, true},
		{chained(&plan.IndexSeek{Table: "t", Index: "ix_num"}), false},
		// Project-rooted: over a fused columnar filter, under a Predict and
		// a Limit, and over an index fetch.
		{&plan.Project{Child: &plan.Filter{Child: colScan(), Pred: numGe}, Cols: []string{"num", "id"}}, true},
		{&plan.Limit{N: 2500, Child: predict(&plan.Project{Child: &plan.Filter{Child: colScan(), Pred: numGe}, Cols: []string{"num"}})}, true},
		{&plan.Project{Child: chained(&plan.IndexSeek{Table: "t", Index: "ix_num"}), Cols: []string{"id", "m2.cls"}}, false},
	} {
		want := wantChained // an index path's oracle is the scan's, in key order
		if tc.ordered {
			want = refRows(t, cc, tc.p)
		} else if pr, ok := tc.p.(*plan.Project); ok {
			want = refRows(t, cc, &plan.Project{Child: chained(scan()), Cols: pr.Cols})
		}
		for _, dop := range []int{1, 4} {
			got := checkAliased(t, cc, tc.p, Options{DOP: dop, BatchSize: 64})
			if ok := sameOrderedRows(got, want); !ok && (tc.ordered || !sameRows(got, want)) {
				t.Fatalf("%s dop=%d: %d rows, oracle %d (or content differs)", plan.Signature(tc.p), dop, len(got), len(want))
			}
		}
	}

	// Aggregates have no per-row oracle; their groups are recomputed here
	// from the oracle's rows.
	aggChild := &plan.Filter{Child: predict(&plan.Filter{Child: scan(), Pred: numGe}), Pred: low}
	p := aggPlan(aggChild, []string{"cat"}, []agg.Item{
		{Func: agg.None, Col: "cat"}, {Func: agg.Count, Star: true}, {Func: agg.Sum, Col: "num"}})
	count, sum := map[string]int64{}, map[string]int64{}
	for _, row := range refRows(t, c, aggChild) {
		count[row[1].AsString()]++
		sum[row[1].AsString()] += row[2].AsInt()
	}
	for _, dop := range []int{1, 4} {
		got := checkAliased(t, c, p, Options{DOP: dop, BatchSize: 64})
		if len(got) != len(count) {
			t.Fatalf("aggregate dop=%d: %d groups, oracle %d", dop, len(got), len(count))
		}
		for _, row := range got {
			if g := row[0].AsString(); row[1].AsInt() != count[g] || row[2].AsInt() != sum[g] {
				t.Fatalf("aggregate dop=%d: group %s = %v, oracle count %d sum %d", dop, g, row, count[g], sum[g])
			}
		}
	}
}

// allocatedBy reports the least bytes any of three calls of fn
// allocates, after one unmeasured call that pays for whatever is set up
// once. A call can find a pool short of what an earlier one grew — a
// batch slice a page overflowed, taken this time by another worker — and
// pays for it once, not again.
func allocatedBy(t *testing.T, fn func()) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fn()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// coldAllocatedBy reports the bytes fn allocates with the executor's
// pools empty: after one unmeasured call that pays for whatever is set up
// once, two collections drop what the pools hold (the first moves it to
// their victim caches, the second frees it), and none runs during the
// measured call.
func coldAllocatedBy(t *testing.T, fn func()) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fn()
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocFlat fails when work over a table of 4×rows rows allocates
// more than perRow bytes for each row it scans beyond the same work over
// one of rows rows. Both tables have a fresh sidecar, and the rows with
// id < 100 are the same in both. The runs share one P and no collection:
// how many of a pool's workers get a unit, and so warm a leaf's storage
// or a selection scratch, and what the pools hold, are then the same from
// run to run. A leaf's arena, batch slice and scratch come back warm from
// the pools, so what is left grows with the rows kept, and the few bytes
// a scanned row may cost are perRow's to name.
func checkAllocFlat(t *testing.T, what string, rows int, perRow float64, run func(c *catalog.Catalog)) {
	t.Helper()
	small, _ := columnarDB(t, rows)
	large, _ := columnarDB(t, 4*rows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := allocatedBy(t, func() { run(small) })
	b := allocatedBy(t, func() { run(large) })
	extra := (float64(b) - float64(a)) / float64(3*rows)
	t.Logf("%s: %d B over %d rows, %d B over %d: %.2f B per extra scanned row", what, a, rows, b, 4*rows, extra)
	if extra > perRow {
		t.Fatalf("%s allocates with the rows scanned, not the rows kept: %d B over %d rows, %d B over %d, %.2f B per extra scanned row (at most %.0f)",
			what, a, rows, b, 4*rows, extra, perRow)
	}
}

// maskedRowBytes is what a scanned row may cost when the plan reads only
// integer columns of it: nothing, with a byte of slack.
const maskedRowBytes = 1

var firstHundred = expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(100)}

// TestAllocScanFollowsSurvivors: a filtered sequential scan that keeps
// the same 100 rows of a table four times the size allocates the same,
// but for the columns it must build of every row it scans.
func TestAllocScanFollowsSurvivors(t *testing.T) {
	for _, tc := range []struct {
		what   string
		p      plan.Node
		perRow float64
	}{
		// No Project: every column is decoded and the sink copies. The
		// strings of cat are per scanned row, and all of what grows: 2 B
		// each, eight to a 16-byte block of the tiny allocator.
		{"filtered scan", &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: firstHundred}, 4},
		// Project: cat is never built, nothing is per scanned row.
		{"projected filtered scan", &plan.Project{Cols: []string{"id", "num"},
			Child: &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: firstHundred}}, maskedRowBytes},
	} {
		checkAllocFlat(t, tc.what, 4000, tc.perRow, func(c *catalog.Catalog) {
			rows, _, err := RunOpts(c, tc.p, Options{DOP: 1})
			if err != nil || len(rows) != 100 {
				t.Fatalf("%s: %d rows, err %v", tc.what, len(rows), err)
			}
		})
	}
}

// TestAllocAggregateDrainFollowsSurvivors is the same statement about
// the aggregate's drain of its child pipeline, over every kind of unit:
// the whole heap, one-page morsels, column groups. The plan reads id and
// num, so a scanned row may cost nothing. A worker that rebuilt its
// pipeline per unit, or took an arena per morsel, would allocate with the
// units.
func TestAllocAggregateDrainFollowsSurvivors(t *testing.T) {
	for _, tc := range []struct {
		what     string
		columnar bool
		opts     Options
		rows     int
	}{
		{"aggregate drain", false, Options{DOP: 1}, 4000},
		{"aggregate over morsels", false, Options{DOP: 4, MorselPages: 1}, 4000},
		{"columnar aggregate", true, Options{DOP: 1}, 4000},
		// Enough groups that the small table, too, runs four workers after
		// the warm-up.
		{"columnar aggregate over the pool", true, Options{DOP: 4}, 6 * storage.ColGroupRows},
	} {
		p := aggPlan(&plan.Filter{Child: &plan.SeqScan{Table: "t", Columnar: tc.columnar}, Pred: firstHundred},
			nil, []agg.Item{{Func: agg.Count, Star: true}, {Func: agg.Sum, Col: "num"}})
		checkAllocFlat(t, tc.what, tc.rows, maskedRowBytes, func(c *catalog.Catalog) {
			rows, _, err := RunOpts(c, p, tc.opts)
			if err != nil || len(rows) != 1 || rows[0][0].AsInt() != 100 {
				t.Fatalf("%s: rows %v, err %v", tc.what, rows, err)
			}
		})
	}
}

// TestAllocCollectMatchesFollowsMatches: the DML victim scan copies the
// rows that match and nothing per row that does not; a caller that reads
// no column of a victim gets its RID alone, one per match.
func TestAllocCollectMatchesFollowsMatches(t *testing.T) {
	for _, tc := range []struct {
		what string
		need []bool
	}{
		{"CollectMatches", nil},
		{"CollectMatches reading no column", []bool{}},
	} {
		checkAllocFlat(t, tc.what, 4000, maskedRowBytes, func(c *catalog.Catalog) {
			tb, _ := c.Table("t")
			rids, rows, err := CollectMatches(context.Background(), tb, firstHundred, tc.need, Options{})
			if err != nil || len(rids) != 100 || (len(rows) == 100) != (tc.need == nil) {
				t.Fatalf("%s: %d matches, %d rows, err %v", tc.what, len(rids), len(rows), err)
			}
		})
	}
	// Per match: 1,000 and 4,000 victims of one table, no column read.
	// The bound is a RID, and the eighth of it the allocator may round a
	// slice of them up by.
	_, tb := testDB(t, 8000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	victimsUnder := func(n int64) uint64 {
		pred := expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(n)}
		return allocatedBy(t, func() {
			if rids, rows, err := CollectMatches(context.Background(), tb, pred, []bool{}, Options{}); err != nil || len(rids) != int(n) || rows != nil {
				t.Fatalf("%d matches, %d rows, err %v", len(rids), len(rows), err)
			}
		})
	}
	a, b := victimsUnder(1000), victimsUnder(4000)
	perMatch := (float64(b) - float64(a)) / 3000
	bound := float64(unsafe.Sizeof(storage.RID{})) * 9 / 8
	t.Logf("no column read: %d B for 1000 matches, %d B for 4000: %.2f B per extra match", a, b, perMatch)
	if perMatch > bound {
		t.Fatalf("a victim read for its RID alone costs %.2f B, more than a RID (%.0f B)", perMatch, bound)
	}
}

// TestCollectMatchesRowsAreCopies: the matches outlive the scan's
// scratch tuple, and a caller's need narrows them as it does a fetch.
func TestCollectMatchesRowsAreCopies(t *testing.T) {
	c, tb := testDB(t, 500)
	pred := expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(40)}
	want := refRows(t, c, &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: pred})
	for _, need := range [][]bool{nil, {true, false, true}} {
		rids, got, err := CollectMatches(context.Background(), tb, pred, need, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(rids) != len(got) || len(got) == 0 {
			t.Fatalf("need %v: %d matches, %d rows, oracle %d", need, len(rids), len(got), len(want))
		}
		for i, row := range got {
			fetched, ok, err := tb.FetchInto(nil, rids[i], nil, need)
			if err != nil || !ok || !row.Equal(fetched) {
				t.Fatalf("need %v: match %d (%s) = %v, fetched %v (ok %v, err %v)", need, i, rids[i], row, fetched, ok, err)
			}
			if need == nil && !row.Equal(want[i]) {
				t.Fatalf("match %d (%s) = %v, oracle %v", i, rids[i], row, want[i])
			}
		}
	}
}

// columnarDB is testDB with a fresh column-group sidecar.
func columnarDB(t *testing.T, rows int) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c, tb := testDB(t, rows)
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}
	if !tb.ColumnarReady() {
		t.Fatal("columnar sidecar not fresh after EnableColumnar")
	}
	return c, tb
}

// TestAllocColumnarScanFollowsSurvivors: a columnar scan that keeps the
// same 100 rows out of four times the groups allocates the same — rows
// are reconstructed for survivors, into an arena the groups share — and
// executing the statement again costs less than the first time did,
// because the selection buffers the first bought are picked up by the
// second.
func TestAllocColumnarScanFollowsSurvivors(t *testing.T) {
	// A disjunction, so that evaluating it takes several buffers at once.
	pred := expr.NewOr(
		expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(40)},
		expr.NewAnd(expr.Cmp{Col: "id", Op: expr.OpGe, Val: value.Int(40)}, firstHundred),
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(0)})
	p := &plan.Project{Cols: []string{"id", "num"},
		Child: &plan.Filter{Child: &plan.SeqScan{Table: "t", Columnar: true}, Pred: pred}}
	run := func(c *catalog.Catalog) {
		rows, _, err := RunOpts(c, p, Options{DOP: 1})
		if err != nil || len(rows) != 100 {
			t.Fatalf("columnar scan: %d rows, err %v", len(rows), err)
		}
	}
	small, _ := columnarDB(t, 3*storage.ColGroupRows)
	large, _ := columnarDB(t, 12*storage.ColGroupRows)
	a := allocatedBy(t, func() { run(small) })
	b := allocatedBy(t, func() { run(large) })
	t.Logf("columnar scan: %d B over 3 groups, %d B over 12", a, b)
	if float64(b) >= 1.5*float64(a) {
		t.Fatalf("columnar scan allocates with the groups scanned, not the rows kept: %d B over 3 groups, %d B over 12", a, b)
	}

	// Two collections empty the pool of parked scratches; none may run
	// between the two executions.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(large)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := measure(), measure()
	t.Logf("columnar scan: first execution %d B, second %d B", first, second)
	if second >= first {
		t.Fatalf("the second execution allocated %d B, the first %d B: the selection scratch was not recycled", second, first)
	}
}

// TestDecodeMaskColumnar: the columnar scan reconstructs the columns the
// plan reads and only those, on the serial path and on the pool's.
func TestDecodeMaskColumnar(t *testing.T) {
	c, tb := columnarDB(t, 5*storage.ColGroupRows-900) // two warm-up groups, three for the pool
	c.RegisterModel(catModel{}, nil)
	scan := func() *plan.SeqScan { return &plan.SeqScan{Table: "t", Columnar: true} }
	onCat := expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")}
	low := expr.Cmp{Col: "m.cls", Op: expr.OpEq, Val: value.Str("low")}
	dops := []int{1, 4}

	// SELECT * and roots without a Project hand out whole rows; operators
	// above the scan that read what the plan does not return — the model's
	// input, a filter on the predicted class — see what they read.
	for _, p := range []plan.Node{
		scan(),
		&plan.Filter{Child: scan(), Pred: onCat},
		&plan.Limit{N: 5000, Child: &plan.Filter{Child: scan(), Pred: onCat}},
		&plan.Filter{Pred: low, Child: &plan.Predict{Child: &plan.Filter{Child: scan(), Pred: onCat}, Model: "catmod", As: "m.cls"}},
		&plan.Project{Cols: []string{"id", "m.cls"}, Child: &plan.Filter{Pred: low,
			Child: &plan.Predict{Child: &plan.Filter{Child: scan(), Pred: onCat}, Model: "catmod", As: "m.cls"}}},
		&plan.Project{Cols: []string{"cat"}, Child: &plan.Filter{Pred: low,
			Child: &plan.Predict{Child: scan(), Model: "catmod", As: "m.cls"}}},
	} {
		want := refRows(t, c, p)
		if len(want) == 0 {
			t.Fatalf("%s: the oracle returns nothing; the fixture is degenerate", plan.Signature(p))
		}
		for _, dop := range dops {
			if got := checkAliased(t, c, p, Options{DOP: dop, BatchSize: 64}); !sameOrderedRows(got, want) {
				t.Fatalf("%s dop=%d: %d rows, oracle %d (or content differs)", plan.Signature(p), dop, len(got), len(want))
			}
		}
	}

	// Under a projecting root the leaf's rows are the read columns (id
	// returned, cat filtered on) and nothing else, under a schema of just
	// those two.
	filter := &plan.Filter{Child: scan(), Pred: onCat}
	root := &plan.Project{Child: filter, Cols: []string{"id"}}
	want := refRows(t, c, filter)
	for _, dop := range dops {
		// The operator built for the filter as a node of root: what the
		// Project is handed.
		leaf, err := buildUnder(context.Background(), c, root, filter, Options{DOP: dop, BatchSize: 64}.fill(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := schemaNames(leaf.Schema()); got != "id cat" {
			t.Fatalf("masked leaf dop=%d: schema %q, want \"id cat\"", dop, got)
		}
		got := drainBatches(t, leaf)
		if len(got) != len(want) {
			t.Fatalf("masked leaf dop=%d: %d rows, oracle %d", dop, len(got), len(want))
		}
		for i, row := range got {
			if len(row) != 2 || !value.Equal(row[0], want[i][0]) || !value.Equal(row[1], want[i][1]) {
				t.Fatalf("masked leaf dop=%d row %d = %v, want id and cat of %v alone", dop, i, row, want[i])
			}
		}
	}

	// The EXPLAIN ANALYZE re-check reads a column (cat) that neither the
	// fused predicate nor the answer does.
	fused := &plan.Filter{Child: scan(), Pred: expr.NewAnd(
		expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(7000)},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(50)})}
	var wantEnv, wantResid int64
	for _, row := range refRows(t, c, scan()) {
		if !fused.Pred.Eval(tb.Schema, row) {
			if onCat.Eval(tb.Schema, row) {
				wantEnv++
			} else {
				wantResid++
			}
		}
	}
	if wantEnv == 0 || wantResid == 0 {
		t.Fatalf("degenerate fixture: %d envelope rejects, %d residual", wantEnv, wantResid)
	}
	for name, root := range map[string]plan.Node{
		"project":   &plan.Project{Child: fused, Cols: []string{"id"}},
		"aggregate": aggPlan(fused, nil, []agg.Item{{Func: agg.Count, Star: true}}),
	} {
		for _, dop := range dops {
			col := NewCollector()
			col.SetEnvelopeBaseline(fused, onCat)
			if _, _, err := RunOpts(c, root, Options{DOP: dop, Collector: col}); err != nil {
				t.Fatal(err)
			}
			if col.VecInfo(fused.Child) == nil {
				t.Fatalf("%s dop=%d: the scan did not run columnar; the test is vacuous", name, dop)
			}
			st := col.Op(fused)
			if env, resid := st.EnvRejected.Load(), st.ResidRejected.Load(); env != wantEnv || resid != wantResid {
				t.Errorf("%s dop=%d: %d envelope / %d residual rejects, oracle %d / %d", name, dop, env, resid, wantEnv, wantResid)
			}
		}
	}
}

// TestColumnarScratchConcurrent runs columnar scans and columnar
// aggregates from eight goroutines at once, at DOP 1 and 4, some cut
// short by a LIMIT: every scan, and every worker of every scan, takes a
// selection scratch another has just handed back. One handed back while
// something still evaluates through it is a data race, which the race
// detector reports here, or a wrong answer. The recycling must not show
// in the term order or the per-term counters either: they are those of
// one undisturbed serial run.
func TestColumnarScratchConcurrent(t *testing.T) {
	c, _ := columnarDB(t, 6*storage.ColGroupRows-500)
	wide := make([]expr.Expr, 0, 16)
	for k := 0; k < 16; k++ {
		wide = append(wide, expr.NewAnd(
			expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(int64(6 * k))},
			expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c" + string(rune('0'+k%8)))}))
	}
	preds := []expr.Expr{
		expr.NewOr(wide...),
		expr.NewAnd(expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(90)},
			expr.In{Col: "cat", Vals: []value.Value{value.Str("c1"), value.Str("c5")}}),
		expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(300)},
	}
	type query struct {
		root    plan.Node
		scan    plan.Node // the columnar leaf, for its actuals; nil where a LIMIT truncates them
		want    []value.Tuple
		ordered bool
		info    *VecScanInfo
	}
	var queries []*query
	for _, pred := range preds {
		leaf := &plan.SeqScan{Table: "t", Columnar: true}
		filter := &plan.Filter{Child: leaf, Pred: pred}
		rowFilter := &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: pred}
		project := &plan.Project{Child: filter, Cols: []string{"id", "num"}}
		aggLeaf := &plan.SeqScan{Table: "t", Columnar: true}
		items := []agg.Item{{Func: agg.None, Col: "cat"}, {Func: agg.Count, Star: true}, {Func: agg.Sum, Col: "num"}}
		queries = append(queries,
			&query{root: project, scan: leaf, ordered: true,
				want: refRows(t, c, &plan.Project{Child: rowFilter, Cols: []string{"id", "num"}})},
			&query{root: &plan.Limit{Child: filter, N: 20}, ordered: true,
				want: refRows(t, c, &plan.Limit{Child: rowFilter, N: 20})},
			&query{root: aggPlan(&plan.Filter{Child: aggLeaf, Pred: pred}, []string{"cat"}, items), scan: aggLeaf,
				want: runPlan(t, c, aggPlan(rowFilter, []string{"cat"}, items))})
	}
	run := func(q *query, dop int) ([]value.Tuple, *VecScanInfo, error) {
		col := NewCollector()
		rows, _, err := RunOpts(c, q.root, Options{DOP: dop, BatchSize: 64, Collector: col})
		return rows, col.VecInfo(q.scan), err
	}
	for _, q := range queries {
		if len(q.want) == 0 {
			t.Fatalf("%s: the row path returns nothing; the fixture is degenerate", plan.Signature(q.root))
		}
		if q.scan == nil {
			continue
		}
		var err error
		if _, q.info, err = run(q, 1); err != nil || q.info == nil {
			t.Fatalf("%s: err %v, columnar actuals %v", plan.Signature(q.root), err, q.info)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range queries {
					q := queries[(i+g)%len(queries)]
					dop := []int{1, 4}[(g+round+i)%2]
					got, info, err := run(q, dop)
					if err != nil {
						t.Errorf("%s dop=%d: %v", plan.Signature(q.root), dop, err)
						return
					}
					if ok := sameOrderedRows(got, q.want); !ok && (q.ordered || !sameRows(got, append([]value.Tuple(nil), q.want...))) {
						t.Errorf("%s dop=%d: %d rows, the row path %d (or content differs)", plan.Signature(q.root), dop, len(got), len(q.want))
						return
					}
					if q.scan != nil && !reflect.DeepEqual(info, q.info) {
						t.Errorf("%s dop=%d: columnar actuals %+v, a lone serial run %+v", plan.Signature(q.root), dop, info, q.info)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// schemaNames renders a schema's column names, space-separated.
func schemaNames(s *value.Schema) string {
	names := make([]string, s.Len())
	for i, col := range s.Columns {
		names[i] = col.Name
	}
	return strings.Join(names, " ")
}

// TestDecodeMaskColumns pins which columns each plan shape decodes, and
// that the leaf built for the plan — serial, parallel or index fetch —
// reports exactly those as its schema.
func TestDecodeMaskColumns(t *testing.T) {
	c, _ := testDB(t, 10)
	c.RegisterModel(catModel{}, nil) // reads num
	scan := &plan.SeqScan{Table: "t"}
	onCat := &plan.Filter{Child: scan, Pred: expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")}}
	predicted := &plan.Filter{Child: &plan.Predict{Child: scan, Model: "catmod", As: "m.cls"},
		Pred: expr.Cmp{Col: "m.cls", Op: expr.OpEq, Val: value.Str("low")}}
	baseline := &plan.Filter{Child: scan, Pred: expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(5)}}
	col := NewCollector()
	col.SetEnvelopeBaseline(baseline, expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")})
	for _, tc := range []struct {
		name string
		root plan.Node
		col  *Collector
		want string // id, cat, num; "all" for a nil mask
	}{
		{"bare scan", scan, nil, "all"},
		{"filter, no project", onCat, nil, "all"},
		{"limit over predict, no project", &plan.Limit{Child: predicted, N: 3}, nil, "all"},
		{"empty project list", &plan.Project{Child: onCat}, nil, "all"},
		{"project", &plan.Project{Child: scan, Cols: []string{"ID"}}, nil, "id"},
		{"project over filter", &plan.Project{Child: onCat, Cols: []string{"id"}}, nil, "id cat"},
		{"project over post-predict filter", &plan.Project{Child: predicted, Cols: []string{"id", "m.cls"}}, nil, "id num"},
		{"limit over project", &plan.Limit{Child: &plan.Project{Child: scan, Cols: []string{"num"}}, N: 1}, nil, "num"},
		{"baseline off", &plan.Project{Child: baseline, Cols: []string{"id"}}, nil, "id"},
		{"baseline re-evaluation", &plan.Project{Child: baseline, Cols: []string{"id"}}, col, "id cat"},
		{"count(*)", aggPlan(scan, nil, []agg.Item{{Func: agg.Count, Star: true}}), nil, ""},
		{"aggregate", aggPlan(onCat, []string{"cat"}, []agg.Item{{Func: agg.None, Col: "cat"}, {Func: agg.Sum, Col: "num"}}), nil, "cat num"},
		{"aggregate under project", &plan.Project{Cols: []string{"sum(num)"},
			Child: aggPlan(scan, nil, []agg.Item{{Func: agg.Sum, Col: "num"}})}, nil, "num"},
		{"index path", &plan.Project{Child: &plan.IndexSeek{Table: "t", Index: "ix_num"}, Cols: []string{"id"}}, nil, "id"},
		{"index path, no project", &plan.Filter{Child: &plan.IndexSeek{Table: "t", Index: "ix_num"}, Pred: onCat.Pred}, nil, "all"},
		{"index union", &plan.Project{Cols: []string{"num"}, Child: &plan.IndexUnion{Table: "t", Seeks: []*plan.IndexSeek{
			{Table: "t", Index: "ix_num"}, {Table: "t", Index: "ix_cat"}}}}, nil, "num"},
	} {
		got := "all"
		if need := decodeMask(c, tc.root, tc.col); need != nil {
			var names []string
			for o, on := range need {
				if on {
					names = append(names, []string{"id", "cat", "num"}[o])
				}
			}
			got = strings.Join(names, " ")
		}
		if got != tc.want {
			t.Errorf("%s: decodes %q, want %q", tc.name, got, tc.want)
		}
		leaf := tc.root
		for kids := leaf.Children(); len(kids) == 1; kids = leaf.Children() {
			leaf = kids[0]
		}
		wantSchema := tc.want
		if wantSchema == "all" {
			wantSchema = "id cat num"
		}
		for _, dop := range []int{1, 4} {
			it, err := buildUnder(context.Background(), c, tc.root, leaf, Options{DOP: dop, Collector: tc.col}.fill(), nil)
			if err != nil {
				t.Fatalf("%s: build leaf: %v", tc.name, err)
			}
			if got := schemaNames(it.Schema()); got != wantSchema {
				t.Errorf("%s dop=%d: leaf schema %q, want %q", tc.name, dop, got, wantSchema)
			}
			it.Close()
		}
	}
}

// TestNotDecodedColumnFailsBuild: an operator reading a column its scan
// did not decode fails the build, naming the column and the table, rather
// than reading it as absent on every row. The plans are hand-built so that
// the root the leaf takes its mask from omits what the operator reads.
func TestNotDecodedColumnFailsBuild(t *testing.T) {
	c, _ := testDB(t, 50)
	c.RegisterModel(catModel{}, nil) // reads num
	idOnly := func(child plan.Node) plan.Node { return &plan.Project{Child: child, Cols: []string{"id"}} }
	onCat := expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")}
	scan := &plan.SeqScan{Table: "t"}
	baseline := &plan.Filter{Child: scan, Pred: expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(5)}}
	col := NewCollector()
	col.SetEnvelopeBaseline(baseline, onCat)
	for _, tc := range []struct {
		name    string
		root, n plan.Node // the leaf under n takes its mask from root
		col     *Collector
		missing string
	}{
		{"filter", idOnly(scan), &plan.Filter{Child: scan, Pred: onCat}, nil, "cat"},
		{"filter baseline", idOnly(&plan.Filter{Child: scan, Pred: baseline.Pred}), baseline, col, "cat"},
		{"predict input", idOnly(scan), &plan.Predict{Child: scan, Model: "catmod", As: "m.cls"}, nil, "num"},
		{"project", idOnly(scan), &plan.Project{Child: scan, Cols: []string{"id", "cat"}}, nil, "cat"},
		{"aggregate", idOnly(scan), aggPlan(scan, []string{"cat"}, []agg.Item{{Func: agg.None, Col: "cat"}}).Child, nil, "cat"},
		{"index path", idOnly(&plan.IndexSeek{Table: "t", Index: "ix_num"}),
			&plan.Filter{Child: &plan.IndexSeek{Table: "t", Index: "ix_num"}, Pred: onCat}, nil, "cat"},
	} {
		want := `exec: column "` + tc.missing + `" not decoded by scan of t`
		for _, dop := range []int{1, 4} {
			n := tc.n
			if part, ok := n.(*plan.HashAgg); ok {
				// A partial runs under its final; build it the way the final
				// does, with the mask of the wrong root.
				_, err := RunPartialAgg(context.Background(), c, &plan.HashAgg{Phase: plan.AggPartial,
					Child: tc.root, GroupBy: part.GroupBy, Aggs: part.Aggs}, Options{DOP: dop, Collector: tc.col}.fill())
				if err == nil || err.Error() != want {
					t.Errorf("%s dop=%d: err = %v, want %q", tc.name, dop, err, want)
				}
				continue
			}
			it, err := buildUnder(context.Background(), c, tc.root, n, Options{DOP: dop, Collector: tc.col}.fill(), nil)
			if err == nil {
				it.Close()
			}
			if err == nil || err.Error() != want {
				t.Errorf("%s dop=%d: err = %v, want %q", tc.name, dop, err, want)
			}
		}
	}
}

// TestScanAllocFollowsMask: a scan leaf's rows cost the columns the plan
// reads. One execution of a heap scan under a root projecting 2 of 8
// columns allocates at most (2+room)/(8+room) of what the same leaf under
// SELECT * does (room, the Predict slots, is 0 here), plus 10 points for
// what both pay whatever their width — the batch slice, the operator, the
// page reads. The batches are large, so that the rows dominate, and the
// pools are empty, so that the arena is paid for: a warm one costs
// nothing at any width. Even so the leaf pays for a batch of rows, not
// for the table: under half of what the table's rows would take.
func TestScanAllocFollowsMask(t *testing.T) {
	c := catalog.New()
	cols := make([]value.Column, 8)
	for i := range cols {
		cols[i] = value.Column{Name: string(rune('a' + i)), Kind: value.KindInt}
	}
	tb, err := c.CreateTable("w", value.MustSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		row := make(value.Tuple, len(cols))
		for j := range row {
			row[j] = value.Int(int64(i * j))
		}
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	scan := &plan.SeqScan{Table: "w"}
	leafBytes := func(root plan.Node) uint64 {
		return coldAllocatedBy(t, func() {
			it, err := buildUnder(context.Background(), c, root, scan, Options{DOP: 1, BatchSize: 1024}.fill(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			rows := 0
			for {
				b, done, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				rows += len(b)
			}
			if rows != 4000 {
				t.Fatalf("leaf returned %d rows, want 4000", rows)
			}
		})
	}
	whole := leafBytes(scan)
	narrow := leafBytes(&plan.Project{Child: scan, Cols: []string{"b", "g"}})
	t.Logf("heap scan leaf: SELECT * %d B, 2 of 8 columns %d B", whole, narrow)
	if table := uint64(4000 * len(cols) * int(unsafe.Sizeof(value.Value{}))); whole >= table/2 {
		t.Fatalf("a SELECT * leaf allocated %d B, the table's rows take %d B: it allocates per row", whole, table)
	}
	if limit := (2.0/8 + 0.10) * float64(whole); float64(narrow) > limit {
		t.Fatalf("a leaf decoding 2 of 8 columns allocated %d B, over %.0f B (SELECT *: %d B)", narrow, limit, whole)
	}
}

// TestDecodeMaskOperatorsSeeWhatTheyRead runs plans whose operators read
// columns the plan does not return, at DOP 1 and 4: the projected answer
// must be the oracle's, and the EXPLAIN ANALYZE attribution — which
// re-evaluates a baseline predicate over a column the plan's own filter
// never touches — must split the rejects as the oracle does.
func TestDecodeMaskOperatorsSeeWhatTheyRead(t *testing.T) {
	c, _ := testDB(t, 3000)
	c.RegisterModel(catModel{}, nil)
	scan := func() plan.Node { return &plan.SeqScan{Table: "t"} }
	onCat := expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")}
	low := expr.Cmp{Col: "m.cls", Op: expr.OpEq, Val: value.Str("low")}
	for _, p := range []plan.Node{
		&plan.Project{Cols: []string{"id"}, Child: &plan.Filter{Child: scan(), Pred: onCat}},
		&plan.Project{Cols: []string{"id"}, Child: &plan.Filter{Pred: low,
			Child: &plan.Predict{Child: &plan.Filter{Child: scan(), Pred: onCat}, Model: "catmod", As: "m.cls"}}},
		&plan.Limit{N: 40, Child: &plan.Project{Cols: []string{"cat", "m.cls"}, Child: &plan.Filter{Pred: low,
			Child: &plan.Predict{Child: scan(), Model: "catmod", As: "m.cls"}}}},
	} {
		want := refRows(t, c, p)
		if len(want) == 0 {
			t.Fatalf("%s: the oracle returns nothing; the fixture is degenerate", plan.Signature(p))
		}
		for _, dop := range []int{1, 4} {
			if got := checkAliased(t, c, p, Options{DOP: dop, BatchSize: 64}); !sameOrderedRows(got, want) {
				t.Fatalf("%s dop=%d: %d rows, oracle %d (or content differs)", plan.Signature(p), dop, len(got), len(want))
			}
		}
	}

	// The rewritten predicate reads id and num; the baseline reads cat.
	filter := &plan.Filter{Child: scan(), Pred: expr.NewAnd(
		expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(2000)},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(50)})}
	var wantEnv, wantResid int64
	for _, row := range refRows(t, c, scan()) {
		if !filter.Pred.Eval(mustTable(t, c).Schema, row) {
			if onCat.Eval(mustTable(t, c).Schema, row) {
				wantEnv++
			} else {
				wantResid++
			}
		}
	}
	if wantEnv == 0 || wantResid == 0 {
		t.Fatalf("degenerate fixture: %d envelope rejects, %d residual", wantEnv, wantResid)
	}
	for name, root := range map[string]plan.Node{
		"project":   &plan.Project{Child: filter, Cols: []string{"id"}},
		"aggregate": aggPlan(filter, nil, []agg.Item{{Func: agg.Count, Star: true}}),
	} {
		for _, dop := range []int{1, 4} {
			col := NewCollector()
			col.SetEnvelopeBaseline(filter, onCat)
			if _, _, err := RunOpts(c, root, Options{DOP: dop, Collector: col}); err != nil {
				t.Fatal(err)
			}
			st := col.Op(filter)
			if env, resid := st.EnvRejected.Load(), st.ResidRejected.Load(); env != wantEnv || resid != wantResid {
				t.Errorf("%s dop=%d: %d envelope / %d residual rejects, oracle %d / %d", name, dop, env, resid, wantEnv, wantResid)
			}
		}
	}
}

func mustTable(t *testing.T, c *catalog.Catalog) *catalog.Table {
	t.Helper()
	tb, ok := c.Table("t")
	if !ok {
		t.Fatal("no table t")
	}
	return tb
}

// TestDecodeMaskCorruptSkippedColumn: a record whose damage lies in a
// column the plan does not read still fails the scan, at its RID, on
// every path through the one reader.
func TestDecodeMaskCorruptSkippedColumn(t *testing.T) {
	c, tb := testDB(t, 700)
	// Arity 3, a sound INT id, then a TEXT cat claiming 200 bytes of
	// which the record holds 2.
	rec := value.Int(99).Encode([]byte{3})
	rec = append(rec, byte(value.KindString), 200, 'c', '2')
	rid, err := tb.Heap.(*storage.Heap).Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := "corrupt row at " + rid.String()
	project := &plan.Project{Child: &plan.SeqScan{Table: "t"}, Cols: []string{"id"}}
	count := aggPlan(&plan.SeqScan{Table: "t"}, nil, []agg.Item{{Func: agg.Count, Star: true}})
	for _, p := range []plan.Node{project, count} {
		for _, dop := range []int{1, 4} {
			if need := decodeMask(c, p, nil); need == nil || need[1] {
				t.Fatalf("%s: cat is decoded (%v); the test is vacuous", plan.Signature(p), need)
			}
			_, _, err := RunOpts(c, p, Options{DOP: dop, MorselPages: 1})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s dop=%d: err = %v, want %q", plan.Signature(p), dop, err, want)
			}
		}
	}
	for _, need := range [][]bool{nil, {}} {
		if _, _, err := CollectMatches(context.Background(), tb, firstHundred, need, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CollectMatches need %v: err = %v, want %q", need, err, want)
		}
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/storage"
	"minequery/internal/value"
)

func testDB(t *testing.T, rows int) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.New()
	tb, err := c.CreateTable("t", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
		value.Column{Name: "num", Kind: value.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		_, err := tb.Insert(value.Tuple{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("c%d", r.Intn(8))),
			value.Int(int64(r.Intn(100))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateIndex("ix_cat", "t", "cat"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix_cat_num", "t", "cat", "num"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix_num", "t", "num"); err != nil {
		t.Fatal(err)
	}
	tb.Analyze()
	return c, tb
}

// runPlan executes a plan on the operators under test.
func runPlan(t *testing.T, c *catalog.Catalog, n plan.Node) []value.Tuple {
	t.Helper()
	rows, _, err := RunOpts(c, n, Options{})
	if err != nil {
		t.Fatalf("run %s: %v", plan.Explain(n), err)
	}
	return rows
}

// refRows evaluates a plan on the per-row reference (reference_test.go).
func refRows(t *testing.T, c *catalog.Catalog, n plan.Node) []value.Tuple {
	t.Helper()
	rows, _, err := refRun(c, n)
	if err != nil {
		t.Fatalf("reference %s: %v", plan.Explain(n), err)
	}
	return rows
}

// sortTuples canonicalizes row order for set comparison.
func sortTuples(rows []value.Tuple) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if c := value.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func sameRows(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	sortTuples(a)
	sortTuples(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestSeqScanReturnsAllRows(t *testing.T) {
	c, _ := testDB(t, 500)
	rows := runPlan(t, c, &plan.SeqScan{Table: "t"})
	if len(rows) != 500 {
		t.Fatalf("seq scan returned %d rows", len(rows))
	}
}

func TestConstScanReturnsNothing(t *testing.T) {
	c, _ := testDB(t, 50)
	rows := runPlan(t, c, &plan.ConstScan{Table: "t"})
	if len(rows) != 0 {
		t.Fatalf("const scan returned %d rows", len(rows))
	}
}

func TestIndexSeekEquality(t *testing.T) {
	c, _ := testDB(t, 2000)
	pred := expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c3")}
	want := refRows(t, c, &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: pred})
	got := runPlan(t, c, &plan.IndexSeek{
		Table: "t", Index: "ix_cat", EqVals: []value.Value{value.Str("c3")},
	})
	if len(want) == 0 {
		t.Fatal("test needs matching rows")
	}
	if !sameRows(got, want) {
		t.Fatalf("index seek: %d rows, scan+filter: %d rows", len(got), len(want))
	}
}

func TestIndexSeekCompositeWithRange(t *testing.T) {
	c, _ := testDB(t, 2000)
	pred := expr.NewAnd(
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c1")},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(20)},
		expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(40)},
	)
	want := refRows(t, c, &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: pred})
	seek := &plan.IndexSeek{
		Table: "t", Index: "ix_cat_num",
		EqVals: []value.Value{value.Str("c1")},
		Range:  interval.Above(value.Int(20), true).Intersect(interval.Below(value.Int(40), true)),
	}
	got := runPlan(t, c, &plan.Filter{Child: seek, Pred: pred})
	if len(want) == 0 {
		t.Fatal("test needs matching rows")
	}
	if !sameRows(got, want) {
		t.Fatalf("composite seek: %d rows, want %d", len(got), len(want))
	}
}

func TestIndexSeekExclusiveBoundsViaFilter(t *testing.T) {
	c, _ := testDB(t, 2000)
	pred := expr.NewAnd(
		expr.Cmp{Col: "num", Op: expr.OpGt, Val: value.Int(90)},
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(95)},
	)
	want := refRows(t, c, &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: pred})
	seek := &plan.IndexSeek{
		Table: "t", Index: "ix_num",
		Range: interval.Above(value.Int(90), false).Intersect(interval.Below(value.Int(95), false)),
	}
	got := runPlan(t, c, &plan.Filter{Child: seek, Pred: pred})
	if !sameRows(got, want) {
		t.Fatalf("exclusive range: %d rows, want %d", len(got), len(want))
	}
}

func TestIndexUnionDeduplicates(t *testing.T) {
	c, _ := testDB(t, 2000)
	// Overlapping disjuncts: cat = c2 OR num >= 95 (some rows satisfy both).
	pred := expr.NewOr(
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(95)},
	)
	want := refRows(t, c, &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: pred})
	union := &plan.IndexUnion{Table: "t", Seeks: []*plan.IndexSeek{
		{Table: "t", Index: "ix_cat", EqVals: []value.Value{value.Str("c2")}},
		{Table: "t", Index: "ix_num", Range: interval.Above(value.Int(95), true)},
	}}
	// Exact positional equality with the heap-order reference: each row
	// once (overlap deduplicated) and fetched in heap order.
	got := runPlan(t, c, &plan.Filter{Child: union, Pred: pred})
	if !sameOrderedRows(got, want) {
		t.Fatalf("index union: %d rows, want %d in heap order", len(got), len(want))
	}
}

// TestRIDFetchSkipsDeletedRows deletes rows after the seek has
// materialized its RID list: the fetch must skip the dead RIDs and still
// fill every batch but the last to BatchSize from live rows.
func TestRIDFetchSkipsDeletedRows(t *testing.T) {
	const rows, batchSize = 2000, 32
	c, tb := testDB(t, rows)
	it, err := BuildBatchCtx(context.Background(), c, &plan.IndexSeek{Table: "t", Index: "ix_num"}, Options{BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	deleted := map[int64]bool{}
	var victims []storage.RID
	tb.Heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		if id := row[0].AsInt(); id%3 == 0 {
			victims = append(victims, rid)
			deleted[id] = true
		}
		return true
	})
	for _, rid := range victims {
		tb.Heap.Delete(rid)
	}
	total, short := 0, 0
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if short > 0 {
			t.Fatal("a short batch was followed by another batch")
		}
		if len(b) < batchSize {
			short++
		}
		for _, row := range b {
			if deleted[row[0].AsInt()] {
				t.Fatalf("fetched deleted row %v", row)
			}
		}
		total += len(b)
	}
	if want := rows - len(victims); total != want {
		t.Fatalf("fetched %d rows, want %d live", total, want)
	}
}

// TestLimitOverIndexSeekStopsFetching: a satisfied Limit never asks its
// child for a second batch, so the fetch stops after one batch of RIDs.
func TestLimitOverIndexSeekStopsFetching(t *testing.T) {
	c, _ := testDB(t, 2000)
	col := NewCollector()
	p := &plan.Limit{Child: &plan.IndexSeek{Table: "t", Index: "ix_num"}, N: 5}
	rows, _, err := RunOpts(c, p, Options{BatchSize: 16, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
	if io := col.IO.Snapshot(); io.RandPageReads != 16 || io.TupleReads != 16 {
		t.Fatalf("fetched %d pages / %d tuples for LIMIT 5; want one batch of 16", io.RandPageReads, io.TupleReads)
	}
}

func TestProjectAndLimit(t *testing.T) {
	c, _ := testDB(t, 100)
	p := &plan.Limit{
		Child: &plan.Project{Child: &plan.SeqScan{Table: "t"}, Cols: []string{"cat", "id"}},
		N:     7,
	}
	it, err := BuildBatchCtx(context.Background(), c, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if it.Schema().Len() != 2 || it.Schema().Col(0).Name != "cat" {
		t.Fatalf("projected schema = %v", it.Schema())
	}
	if n := len(drainBatches(t, it)); n != 7 {
		t.Fatalf("limit returned %d rows", n)
	}
}

func TestProjectMissingColumn(t *testing.T) {
	c, _ := testDB(t, 10)
	_, err := BuildBatchCtx(context.Background(), c, &plan.Project{Child: &plan.SeqScan{Table: "t"}, Cols: []string{"nope"}}, Options{})
	if err == nil {
		t.Error("projecting a missing column should fail")
	}
}

type catModel struct{}

func (catModel) Name() string           { return "catmod" }
func (catModel) PredictColumn() string  { return "cls" }
func (catModel) InputColumns() []string { return []string{"num"} }
func (catModel) Classes() []value.Value {
	return []value.Value{value.Str("low"), value.Str("high")}
}
func (catModel) Predict(in value.Tuple) value.Value {
	if in[0].AsInt() < 50 {
		return value.Str("low")
	}
	return value.Str("high")
}

func TestPredictAppendsColumn(t *testing.T) {
	c, _ := testDB(t, 200)
	c.RegisterModel(catModel{}, nil)
	p := &plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "catmod", As: "m.cls"}
	rows, schema, err := RunOpts(c, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := schema.Ordinal("m.cls")
	if o != 3 {
		t.Fatalf("predicted column ordinal = %d", o)
	}
	for _, r := range rows {
		want := "low"
		if r[2].AsInt() >= 50 {
			want = "high"
		}
		if r[o].AsString() != want {
			t.Fatalf("row %v predicted %q, want %q", r, r[o].AsString(), want)
		}
	}
}

func TestPredictVersionInvalidation(t *testing.T) {
	c, _ := testDB(t, 10)
	me := c.RegisterModel(catModel{}, nil)
	p := &plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "catmod", As: "m.cls", Version: me.Version}
	// The Predict operator guards alone and under an aggregate, whose
	// workers build it the same way.
	plans := []plan.Node{p, aggPlan(p, []string{"m.cls"}, []agg.Item{{Func: agg.None, Col: "m.cls"}, {Func: agg.Count, Star: true}})}
	for _, n := range plans {
		if _, _, err := RunOpts(c, n, Options{}); err != nil {
			t.Fatalf("%s: current-version plan should run: %v", plan.Explain(n), err)
		}
	}
	c.RegisterModel(catModel{}, nil) // retrain bumps version
	for _, n := range plans {
		if _, _, err := RunOpts(c, n, Options{}); !errors.Is(err, qerr.ErrPlanInvalidated) {
			t.Errorf("%s: err = %v, want ErrPlanInvalidated for a plan pinned to a stale model version", plan.Explain(n), err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	c, _ := testDB(t, 10)
	cases := []plan.Node{
		&plan.SeqScan{Table: "missing"},
		&plan.ConstScan{Table: "missing"},
		&plan.IndexSeek{Table: "missing"},
		&plan.IndexSeek{Table: "t", Index: "missing"},
		&plan.IndexSeek{Table: "t", Index: "ix_cat", EqVals: []value.Value{value.Str("a"), value.Str("b")}},
		&plan.IndexUnion{Table: "missing"},
		&plan.IndexUnion{Table: "t", Seeks: []*plan.IndexSeek{{Table: "t", Index: "missing"}}},
		&plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "missing", As: "x"},
		&plan.Filter{Child: &plan.SeqScan{Table: "missing"}, Pred: expr.TrueExpr{}},
		&plan.Project{Child: &plan.SeqScan{Table: "missing"}},
		&plan.Limit{Child: &plan.SeqScan{Table: "missing"}, N: 1},
		&plan.Predict{Child: &plan.SeqScan{Table: "missing"}, Model: "m", As: "x"},
	}
	for _, n := range cases {
		if _, err := BuildBatchCtx(context.Background(), c, n, Options{}); err == nil {
			t.Errorf("BuildBatchCtx(%s) should fail", plan.Describe(n))
		}
	}
}

func TestPredictUnboundModel(t *testing.T) {
	c, _ := testDB(t, 10)
	c.RegisterModel(wrongColsModel{}, nil)
	_, err := BuildBatchCtx(context.Background(), c, &plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "wrong", As: "x"}, Options{})
	if err == nil {
		t.Error("model with unbound input columns should fail to build")
	}
}

type wrongColsModel struct{}

func (wrongColsModel) Name() string                    { return "wrong" }
func (wrongColsModel) PredictColumn() string           { return "c" }
func (wrongColsModel) InputColumns() []string          { return []string{"no_such_col"} }
func (wrongColsModel) Classes() []value.Value          { return nil }
func (wrongColsModel) Predict(value.Tuple) value.Value { return value.Null() }

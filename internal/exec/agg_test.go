package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"minequery/internal/agg"
	"minequery/internal/core"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// aggPlan wraps a child pipeline in the canonical Final-over-Partial
// pair.
func aggPlan(child plan.Node, groupBy []string, items []agg.Item) *plan.HashAgg {
	return &plan.HashAgg{
		Child:   &plan.HashAgg{Child: child, Phase: plan.AggPartial, GroupBy: groupBy, Aggs: items},
		Phase:   plan.AggFinal,
		GroupBy: groupBy,
		Aggs:    items,
	}
}

func rowsToStrings(rows []value.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestAggPathEquivalence: every unit a partial aggregate is cut into —
// heap morsels (DOP>1), column groups (DOP 1 and >1), the whole input
// (DOP 1) — finalizes byte-identical rows in identical order, for grouped
// and ungrouped aggregates, with and without a filter.
func TestAggPathEquivalence(t *testing.T) {
	cc, tb := testDB(t, 4000)
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}

	items := []agg.Item{
		{Func: agg.None, Col: "cat"},
		{Func: agg.Count, Star: true},
		{Func: agg.Sum, Col: "num"},
		{Func: agg.Min, Col: "num"},
		{Func: agg.Max, Col: "num"},
		{Func: agg.Avg, Col: "num"},
	}
	ungrouped := []agg.Item{
		{Func: agg.Count, Star: true},
		{Func: agg.Sum, Col: "num"},
		{Func: agg.Avg, Col: "num"},
	}
	pred := expr.NewAnd(
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(10)},
		expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(90)},
	)

	type shape struct {
		name    string
		groupBy []string
		items   []agg.Item
		filter  expr.Expr
	}
	shapes := []shape{
		{"grouped", []string{"cat"}, items, nil},
		{"grouped-filtered", []string{"cat"}, items, pred},
		{"ungrouped", nil, ungrouped, nil},
		{"ungrouped-filtered-empty", nil, ungrouped, expr.FalseExpr{}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			build := func(columnar bool) plan.Node {
				var child plan.Node = &plan.SeqScan{Table: "t", Columnar: columnar}
				if sh.filter != nil {
					child = &plan.Filter{Child: child, Pred: sh.filter}
				}
				return aggPlan(child, sh.groupBy, sh.items)
			}
			want, _, err := RunOpts(cc, build(false), Options{DOP: 1, BatchSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			if sh.groupBy == nil && len(want) != 1 {
				t.Fatalf("ungrouped aggregate produced %d rows, want 1", len(want))
			}
			wantS := rowsToStrings(want)
			for _, cfg := range []struct {
				name     string
				columnar bool
				dop      int
			}{
				{"morsel-dop4", false, 4},
				{"columnar-dop1", true, 1},
				{"columnar-dop4", true, 4},
				{"generic-dop1", false, 1},
			} {
				got, _, err := RunOpts(cc, build(cfg.columnar), Options{DOP: cfg.dop, BatchSize: 64})
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				gotS := rowsToStrings(got)
				if strings.Join(gotS, "\n") != strings.Join(wantS, "\n") {
					t.Fatalf("%s differs from serial run\n got %v\nwant %v", cfg.name, gotS, wantS)
				}
			}
		})
	}
}

// TestAggOverPredictedColumn runs the paper's pipeline under an
// aggregate: GROUP BY a model's predicted class with a residual class
// filter, over heap morsels and column groups against the serial run.
func TestAggOverPredictedColumn(t *testing.T) {
	cc, tb := testDB(t, 3000)
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}

	ts := &mining.TrainSet{Schema: value.MustSchema(value.Column{Name: "num", Kind: value.KindInt})}
	tb.Heap.Scan(func(_ storage.RID, rec []byte) bool {
		row, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		ts.Rows = append(ts.Rows, value.Tuple{row[2]})
		cls := "low"
		if row[2].AsInt() >= 90 {
			cls = "high"
		}
		ts.Labels = append(ts.Labels, value.Str(cls))
		return true
	})
	m, err := dtree.Train("dt", "cls", ts, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cc.RegisterModel(m, der.Envelopes)

	items := []agg.Item{
		{Func: agg.None, Col: "dt.cls"},
		{Func: agg.Count, Star: true},
		{Func: agg.Sum, Col: "num"},
	}
	build := func(columnar bool) plan.Node {
		return aggPlan(&plan.Filter{
			Child: &plan.Predict{Child: &plan.SeqScan{Table: "t", Columnar: columnar}, Model: "dt", As: "dt.cls"},
			Pred:  expr.Cmp{Col: "dt.cls", Op: expr.OpEq, Val: value.Str("high")},
		}, []string{"dt.cls"}, items)
	}

	want, _, err := RunOpts(cc, build(false), Options{DOP: 1, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 {
		t.Fatalf("expected one 'high' group, got %d rows", len(want))
	}
	wantS := rowsToStrings(want)
	for _, cfg := range []struct {
		name     string
		columnar bool
		dop      int
	}{
		{"morsel-dop4", false, 4},
		{"columnar-dop1", true, 1},
		{"columnar-dop4", true, 4},
	} {
		got, _, err := RunOpts(cc, build(cfg.columnar), Options{DOP: cfg.dop, BatchSize: 64})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if gotS := rowsToStrings(got); strings.Join(gotS, "\n") != strings.Join(wantS, "\n") {
			t.Fatalf("%s differs\n got %v\nwant %v", cfg.name, gotS, wantS)
		}
	}
}

// TestAggOutputSchema checks the Final's schema: select-list order,
// canonical aggregate names, finalized kinds.
func TestAggOutputSchema(t *testing.T) {
	cc, _ := testDB(t, 100)
	p := aggPlan(&plan.SeqScan{Table: "t"}, []string{"cat"}, []agg.Item{
		{Func: agg.Count, Star: true},
		{Func: agg.None, Col: "cat"},
		{Func: agg.Avg, Col: "num"},
	})
	_, schema, err := RunOpts(cc, p, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := "(count(*) INT, cat TEXT, avg(num) FLOAT)"
	if schema.String() != want {
		t.Fatalf("schema %s, want %s", schema, want)
	}
}

// TestRunPartialAggWire checks the shard half of scatter-gather: the
// partial states of two disjoint partition scans, carried over the
// wire encoding, merge and finalize identically to one full run.
func TestRunPartialAggWire(t *testing.T) {
	cc, _ := testDB(t, 2000)
	groupBy := []string{"cat"}
	items := []agg.Item{
		{Func: agg.None, Col: "cat"},
		{Func: agg.Count, Star: true},
		{Func: agg.Sum, Col: "num"},
		{Func: agg.Avg, Col: "num"},
	}
	full := aggPlan(&plan.SeqScan{Table: "t"}, groupBy, items)
	want, _, err := RunOpts(cc, full, Options{DOP: 4, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	// Split the table by a predicate into two "shards", run each as a
	// partial, and merge the wires like the coordinator would.
	lo := &plan.HashAgg{Child: &plan.Filter{
		Child: &plan.SeqScan{Table: "t"},
		Pred:  expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(50)},
	}, Phase: plan.AggPartial, GroupBy: groupBy, Aggs: items}
	hi := &plan.HashAgg{Child: &plan.Filter{
		Child: &plan.SeqScan{Table: "t"},
		Pred:  expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(50)},
	}, Phase: plan.AggPartial, GroupBy: groupBy, Aggs: items}

	tabLo, err := RunPartialAgg(nil, cc, lo, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	tabHi, err := RunPartialAgg(nil, cc, hi, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged := agg.NewTable(tabLo.Spec)
	if err := merged.MergeWire(tabLo.EncodeWire()); err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeWire(tabHi.EncodeWire()); err != nil {
		t.Fatal(err)
	}
	got := merged.Finalize()
	if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatalf("scatter-gathered aggregate differs\n got %v\nwant %v", got, want)
	}
	if merged.Merges() != 2 {
		t.Fatalf("merges = %d, want 2", merged.Merges())
	}
}

// TestAggCollectorStats checks the operator counters under a partial
// aggregate, whose workers run the Partial's own pipeline: on the heap
// and on the sidecar, with and without a prediction join, every
// operator's Rows and Batches and every filter's envelope/residual split
// are the same at DOP 4 as at DOP 1; and the scan's rows, the partial's
// group count and the merge counter surface through the Collector.
func TestAggCollectorStats(t *testing.T) {
	cc, tb := testDB(t, 5*storage.ColGroupRows-900) // two warm-up groups, three for the pool
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}
	cc.RegisterModel(catModel{}, nil)
	for _, columnar := range []bool{false, true} {
		for _, predict := range []bool{false, true} {
			scan := &plan.SeqScan{Table: "t", Columnar: columnar}
			child := &plan.Filter{Child: scan, Pred: expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(20)}}
			// Baselines that split each filter's rejects both ways.
			baselines := map[*plan.Filter]expr.Expr{child: expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(4000)}}
			group := "cat"
			if predict {
				child = &plan.Filter{Child: &plan.Predict{Child: child, Model: "catmod", As: "m.cls"},
					Pred: expr.Cmp{Col: "m.cls", Op: expr.OpEq, Val: value.Str("low")}}
				baselines[child] = expr.Cmp{Col: "cat", Op: expr.OpNe, Val: value.Str("c3")}
				group = "m.cls"
			}
			p := aggPlan(child, []string{group}, []agg.Item{{Func: agg.None, Col: group}, {Func: agg.Count, Star: true}})
			part := p.Child.(*plan.HashAgg)
			name := fmt.Sprintf("columnar=%v predict=%v", columnar, predict)
			counters := func(dop int) (string, *Collector) {
				col := NewCollector()
				for f, base := range baselines {
					col.SetEnvelopeBaseline(f, base)
				}
				if _, _, err := RunOpts(cc, p, Options{DOP: dop, BatchSize: 64, MorselPages: 1, Collector: col}); err != nil {
					t.Fatalf("%s dop=%d: %v", name, dop, err)
				}
				var b strings.Builder
				for n := part.Child; n != nil; {
					st := col.Op(n)
					fmt.Fprintf(&b, "%s rows=%d batches=%d env=%d resid=%d\n", plan.Describe(n),
						st.Rows.Load(), st.Batches.Load(), st.EnvRejected.Load(), st.ResidRejected.Load())
					if kids := n.Children(); len(kids) == 1 {
						n = kids[0]
					} else {
						n = nil
					}
				}
				return b.String(), col
			}
			one, _ := counters(1)
			four, col := counters(4)
			if one != four {
				t.Errorf("%s: counters at DOP 4 differ from DOP 1\n--- dop 1 ---\n%s--- dop 4 ---\n%s", name, one, four)
			}
			if st := col.Op(child); st.EnvRejected.Load() == 0 || st.ResidRejected.Load() == 0 {
				t.Errorf("%s: the top filter's rejects do not split both ways; the test is vacuous\n%s", name, four)
			}
			if got := col.Op(scan).Rows.Load(); got != tb.Heap.Len() {
				t.Errorf("%s: scan rows = %d, want %d", name, got, tb.Heap.Len())
			}
			if got, want := col.Op(part).Rows.Load(), map[bool]int64{false: 8, true: 1}[predict]; got != want {
				t.Errorf("%s: partial groups = %d, want %d", name, got, want)
			}
			if col.AggMerges.Load() == 0 {
				t.Errorf("%s: no partial merges recorded at DOP 4", name)
			}
		}
	}
}

// TestWorkerPipelineReadsThroughUnitLeaf: an aggregate worker's pipeline
// reads its scan through the unit leaf it is built over, even when the
// scan is flagged columnar and the sidecar is fresh at the build — as
// when a rebuild lands between the choice of heap units and the workers'
// builds. A filter fused onto the sidecar there would read the whole
// table in every worker.
func TestWorkerPipelineReadsThroughUnitLeaf(t *testing.T) {
	c, tb := columnarDB(t, 4000)
	scan := &plan.SeqScan{Table: "t", Columnar: true}
	pred := expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(20)}
	filter := &plan.Filter{Child: scan, Pred: pred}
	part := aggPlan(filter, nil, []agg.Item{{Func: agg.Count, Star: true}}).Child
	want := 0
	tb.Heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page == 0 && pred.Eval(tb.Schema, row) {
			want++
		}
		return true
	})
	ctx, opts := context.Background(), Options{DOP: 4, MorselPages: 1}.fill()
	leaf := newBatchSeqScan(ctx, tb, leafCols(c, tb, part, nil), opts, false)
	leaf.seek([][2]int{{0, 1}})
	it, err := buildUnder(ctx, c, part, filter, opts, &unitLeaf{node: scan, it: leaf})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := 0
	for {
		b, done, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		got += len(b)
	}
	if want == 0 || got != want {
		t.Fatalf("the pipeline over a one-page unit leaf returned %d rows, want %d (those of page 0)", got, want)
	}
}

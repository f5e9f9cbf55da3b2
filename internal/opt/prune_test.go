package opt

import (
	"reflect"
	"strings"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/value"
)

// buildPartDB creates a 4-partition table on num with bounds 25/50/75
// and 100 rows per partition.
func buildPartDB(t *testing.T) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.New()
	tb, err := c.CreatePartitionedTable("p", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
	), "num", []value.Value{value.Int(25), value.Int(50), value.Int(75)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := tb.Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Analyze("p"); err != nil {
		t.Fatal(err)
	}
	return c, tb
}

func cmp(col string, op expr.CmpOp, v int64) expr.Expr {
	return expr.Cmp{Col: col, Op: op, Val: value.Int(v)}
}

func TestPrunePartitions(t *testing.T) {
	_, tb := buildPartDB(t)
	cases := []struct {
		name string
		pred expr.Expr
		want []int
	}{
		{"eq-mid", cmp("num", expr.OpEq, 30), []int{1}},
		{"eq-on-bound", cmp("num", expr.OpEq, 50), []int{2}},
		{"lt-bound", cmp("num", expr.OpLt, 25), []int{0}},
		{"le-bound", cmp("num", expr.OpLe, 25), []int{0, 1}},
		{"gt", cmp("num", expr.OpGt, 60), []int{2, 3}},
		{"ge-bound", cmp("num", expr.OpGe, 75), []int{3}},
		{"ne", cmp("num", expr.OpNe, 30), []int{0, 1, 2, 3}},
		{"other-col", cmp("id", expr.OpEq, 7), []int{0, 1, 2, 3}},
		{"null-literal", expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Null()}, []int{}},
		{"and-range", expr.NewAnd(cmp("num", expr.OpGe, 30), cmp("num", expr.OpLt, 60)),
			[]int{1, 2}},
		{"and-contradiction", expr.NewAnd(cmp("num", expr.OpGt, 80), cmp("num", expr.OpLt, 10)),
			[]int{}},
		// OR-of-regions: each disjunct prunes independently; the union
		// of survivors is kept (the clustering-envelope shape).
		{"or-regions", expr.NewOr(
			expr.NewAnd(cmp("num", expr.OpGe, 0), cmp("num", expr.OpLt, 10)),
			expr.NewAnd(cmp("num", expr.OpGe, 80), cmp("num", expr.OpLt, 90)),
		), []int{0, 3}},
		{"or-with-other-col", expr.NewOr(cmp("num", expr.OpLt, 10), cmp("id", expr.OpEq, 1)),
			[]int{0, 1, 2, 3}},
		{"in-dupes", expr.In{Col: "num", Vals: []value.Value{
			value.Int(5), value.Int(5), value.Int(90), value.Null(),
		}}, []int{0, 3}},
		{"not-conservative", expr.Not{Kid: cmp("num", expr.OpLt, 10)}, []int{0, 1, 2, 3}},
		{"true", expr.TrueExpr{}, []int{0, 1, 2, 3}},
		{"false", expr.FalseExpr{}, []int{}},
		// Float cut point (a clustering envelope shape) against the
		// integer bounds.
		{"float-cut", expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Float(24.5)}, []int{0}},
	}
	for _, tc := range cases {
		got, total := PrunePartitions(tb, tc.pred)
		if total != 4 {
			t.Fatalf("%s: total = %d", tc.name, total)
		}
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: surviving partitions = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPrunePartitionsUnpartitioned(t *testing.T) {
	_, tb := buildDB(t, 100)
	parts, total := PrunePartitions(tb, cmp("num", expr.OpEq, 1))
	if parts != nil || total != 0 {
		t.Errorf("unpartitioned table: parts=%v total=%d, want nil/0", parts, total)
	}
}

// TestPruneSpecStandalone exercises the exported spec-level entry point
// (the cluster coordinator prunes shards through it, with no Table in
// hand — a shard map is just cuts over nodes).
func TestPruneSpecStandalone(t *testing.T) {
	cuts := interval.Cuts{value.Int(25), value.Int(50), value.Int(75)}
	cases := []struct {
		name string
		pred expr.Expr
		want []bool
	}{
		{"eq", cmp("num", expr.OpEq, 30), []bool{false, true, false, false}},
		{"range", expr.NewAnd(cmp("num", expr.OpGe, 30), cmp("num", expr.OpLt, 60)),
			[]bool{false, true, true, false}},
		{"contradiction", expr.NewAnd(cmp("num", expr.OpGt, 80), cmp("num", expr.OpLt, 10)),
			[]bool{false, false, false, false}},
		{"other-col", cmp("id", expr.OpEq, 7), []bool{true, true, true, true}},
	}
	for _, tc := range cases {
		if got := PruneSpec("num", cuts, tc.pred); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: PruneSpec = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Parity with the Table-level pruner on an identical spec.
	_, tb := buildPartDB(t)
	for _, tc := range cases {
		keep := PruneSpec(tb.Part.Column, tb.Part.Bounds, tc.pred)
		parts, _ := PrunePartitions(tb, tc.pred)
		var fromKeep []int
		for p, ok := range keep {
			if ok {
				fromKeep = append(fromKeep, p)
			}
		}
		if !reflect.DeepEqual(fromKeep, parts) && !(len(fromKeep) == 0 && len(parts) == 0) {
			t.Errorf("%s: PruneSpec/PrunePartitions disagree: %v vs %v", tc.name, fromKeep, parts)
		}
	}
}

// TestPruningSoundness cross-checks the pruner against row routing: for
// random predicates, every row satisfying the predicate must live in a
// surviving partition.
func TestPruningSoundness(t *testing.T) {
	_, tb := buildPartDB(t)
	preds := []expr.Expr{
		cmp("num", expr.OpLt, 33),
		cmp("num", expr.OpGe, 47),
		expr.NewAnd(cmp("num", expr.OpGe, 20), cmp("num", expr.OpLe, 55)),
		expr.NewOr(cmp("num", expr.OpLe, 3), cmp("num", expr.OpGe, 97)),
		expr.In{Col: "num", Vals: []value.Value{value.Int(24), value.Int(26)}},
		expr.Not{Kid: cmp("num", expr.OpEq, 40)},
	}
	for _, pred := range preds {
		parts, _ := PrunePartitions(tb, pred)
		keep := map[int]bool{}
		for _, p := range parts {
			keep[p] = true
		}
		for v := int64(0); v < 100; v++ {
			row := value.Tuple{value.Int(0), value.Int(v)}
			if pred.Eval(tb.Schema, row) && !keep[tb.Part.Bounds.Stab(value.Int(v))] {
				t.Errorf("%s: qualifying value %d lives in pruned partition %d",
					pred, v, tb.Part.Bounds.Stab(value.Int(v)))
			}
		}
	}
}

func TestChooseAccessPathPrunes(t *testing.T) {
	_, tb := buildPartDB(t)
	cfg := DefaultConfig()

	r := ChooseAccessPath(tb, cmp("num", expr.OpLt, 25), cfg)
	if r.PartsTotal != 4 || r.PartsPruned != 3 || !reflect.DeepEqual(r.Partitions, []int{0}) {
		t.Fatalf("pruning result: total=%d pruned=%d parts=%v", r.PartsTotal, r.PartsPruned, r.Partitions)
	}
	if r.Path == plan.AccessSeqScan {
		leaf := r.Plan
		for len(leaf.Children()) > 0 {
			leaf = leaf.Children()[0]
		}
		ss, ok := leaf.(*plan.SeqScan)
		if !ok {
			t.Fatalf("scan leaf is %T", leaf)
		}
		if ss.PartsTotal != 4 || !reflect.DeepEqual(ss.Partitions, []int{0}) {
			t.Errorf("plan leaf: total=%d parts=%v", ss.PartsTotal, ss.Partitions)
		}
		if !strings.Contains(plan.Describe(ss), "partitions: 3/4 pruned") {
			t.Errorf("Describe = %q, want partitions: 3/4 pruned", plan.Describe(ss))
		}
	}
	// The pruned scan must cost less than the unpruned one.
	full := ChooseAccessPath(tb, expr.TrueExpr{}, cfg)
	if r.ScanCost >= full.ScanCost {
		t.Errorf("pruned scan cost %f not below full scan cost %f", r.ScanCost, full.ScanCost)
	}
	// The fallback ScanPlan stays unpruned.
	leaf := r.ScanPlan
	for len(leaf.Children()) > 0 {
		leaf = leaf.Children()[0]
	}
	if ss, ok := leaf.(*plan.SeqScan); !ok || ss.Partitions != nil || ss.PartsTotal != 0 {
		t.Errorf("ScanPlan leaf = %#v, want unpruned SeqScan", leaf)
	}

	// All partitions contradicted: constant scan without touching data.
	r = ChooseAccessPath(tb, expr.NewAnd(cmp("num", expr.OpGt, 80), cmp("num", expr.OpLt, 10)), cfg)
	if r.Path != plan.AccessConstant {
		t.Errorf("all-pruned predicate path = %v, want constant", r.Path)
	}
	if r.PartsPruned != 4 {
		t.Errorf("all-pruned PartsPruned = %d", r.PartsPruned)
	}

	// Unpartitioned tables report no partition info.
	_, plainTb := buildDB(t, 500)
	r = ChooseAccessPath(plainTb, cmp("num", expr.OpEq, 1), cfg)
	if r.PartsTotal != 0 || r.Partitions != nil {
		t.Errorf("unpartitioned: total=%d parts=%v", r.PartsTotal, r.Partitions)
	}
}

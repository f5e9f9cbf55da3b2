package exec

import (
	"fmt"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
	"minequery/internal/opt"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// Plan-equivalence harness: whatever access path the optimizer picks —
// seq scan, index seek, index union, or constant scan — executing it
// must produce exactly the rows of a forced full-table scan with the
// same predicate, at any degree of parallelism. This is the safety net
// under both the cost model (a wrong *choice* only loses performance)
// and the envelope machinery (a wrong *plan* would lose rows).

// equivCheck runs the optimizer's plan and the forced-scan plan and
// compares multisets at DOP 1 and DOP 4. Every run goes through
// checkAliased (lifetime_test.go), which also drains the plan while
// scribbling over each batch it is handed: these harnesses are the
// aliasing sweep over the optimizer's access-path shapes.
func equivCheck(t *testing.T, c *catalogAndTable, pred expr.Expr, cfg opt.Config) plan.AccessPath {
	t.Helper()
	res := opt.ChooseAccessPath(c.tb, pred, cfg)
	forced := &plan.Filter{Child: &plan.SeqScan{Table: c.tb.Name}, Pred: pred}
	want, _, err := refRun(c.cat, forced)
	if err != nil {
		t.Fatalf("forced scan: %v", err)
	}
	for _, dop := range []int{1, 4} {
		got := checkAliased(t, c.cat, res.Plan, Options{DOP: dop, BatchSize: 64})
		if !sameRows(got, want) {
			t.Fatalf("plan %s at dop=%d returned %d rows, forced scan %d",
				plan.Explain(res.Plan), dop, len(got), len(want))
		}
	}
	return res.Path
}

type catalogAndTable struct {
	cat *catalog.Catalog
	tb  *catalog.Table
}

func TestPlanEquivalenceAccessPaths(t *testing.T) {
	cc, tb := testDB(t, 4000)
	db := &catalogAndTable{cat: cc, tb: tb}
	preds := []expr.Expr{
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(97)},
		expr.NewAnd(
			expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c1")},
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(10)},
			expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(14)},
		),
		expr.NewOr(
			expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c0")},
			expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(42)},
		),
		expr.In{Col: "cat", Vals: []value.Value{value.Str("c3"), value.Str("c4")}},
		// Selective enough that a scan wins; still must be equivalent.
		expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(80)},
		// Unsatisfiable: optimizer may emit a constant scan.
		expr.NewAnd(
			expr.Cmp{Col: "num", Op: expr.OpGt, Val: value.Int(50)},
			expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(40)},
		),
		expr.TrueExpr{},
	}
	paths := map[plan.AccessPath]int{}
	for i, pred := range preds {
		t.Run(fmt.Sprintf("pred%d", i), func(t *testing.T) {
			paths[equivCheck(t, db, pred, opt.DefaultConfig())]++
		})
	}
	// The harness is only meaningful if it exercised more than one path
	// shape — guard against cost-model drift making it vacuous.
	if len(paths) < 2 {
		t.Fatalf("all predicates chose the same access path %v; harness is vacuous", paths)
	}
}

// TestPlanEquivalencePartitioned replays the access-path equivalence
// check over a range-partitioned table with skewed partitions (one is
// empty): whatever the optimizer prunes, the surviving-partition plan
// must return exactly the rows of a forced unpruned scan at DOP 1 and 4.
func TestPlanEquivalencePartitioned(t *testing.T) {
	cc := catalog.New()
	// Bounds leave partition [10,12) empty and make partition 3 hold
	// most of the data.
	tb, err := cc.CreatePartitionedTable("pt", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
		value.Column{Name: "num", Kind: value.KindInt},
	), "num", []value.Value{value.Int(10), value.Int(12), value.Int(20)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		num := int64(i % 100)
		if num >= 10 && num < 12 {
			num = 9 // keep partition [10,12) empty
		}
		if _, err := tb.Insert(value.Tuple{
			value.Int(int64(i)), value.Str(fmt.Sprintf("c%d", i%8)), value.Int(num),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cc.CreateIndex("ix_pt_num", "pt", "num"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	db := &catalogAndTable{cat: cc, tb: tb}
	preds := []expr.Expr{
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(10)},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(20)},
		expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(11)}, // only the empty partition
		expr.NewAnd(
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(5)},
			expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(15)},
		),
		expr.NewOr(
			expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(5)},
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(90)},
		),
		expr.In{Col: "num", Vals: []value.Value{value.Int(3), value.Int(50), value.Int(50)}},
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c1")}, // non-partition column
		expr.TrueExpr{},
	}
	sawPruning := false
	for i, pred := range preds {
		pred := pred
		t.Run(fmt.Sprintf("pred%d", i), func(t *testing.T) {
			equivCheck(t, db, pred, opt.DefaultConfig())
			if r := opt.ChooseAccessPath(tb, pred, opt.DefaultConfig()); r.PartsPruned > 0 {
				sawPruning = true
			}
		})
	}
	if !sawPruning {
		t.Fatal("no predicate pruned any partition; harness is vacuous")
	}
}

// TestPlanEquivalenceDOPCosting pins that raising the DOP makes
// scans relatively cheaper: whatever the optimizer chooses, both the
// DOP-1 and DOP-N choices stay row-equivalent to a forced scan.
func TestPlanEquivalenceDOPCosting(t *testing.T) {
	cc, tb := testDB(t, 4000)
	db := &catalogAndTable{cat: cc, tb: tb}
	pred := expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c6")}
	serial := opt.DefaultConfig()
	par := opt.DefaultConfig()
	par.DOP = 8
	equivCheck(t, db, pred, serial)
	equivCheck(t, db, pred, par)
	rs, rp := opt.ChooseAccessPath(tb, pred, serial), opt.ChooseAccessPath(tb, pred, par)
	if rp.ScanCost >= rs.ScanCost {
		t.Fatalf("scan cost did not drop with DOP: serial %.1f, dop8 %.1f", rs.ScanCost, rp.ScanCost)
	}
	if rp.IndexCost != rs.IndexCost {
		t.Fatalf("index cost must stay serial: %.1f vs %.1f", rs.IndexCost, rp.IndexCost)
	}
}

// TestPlanEquivalenceColumnar replays the equivalence check on a
// columnar-enabled table: the vectorized column-group scan with
// adaptive term ordering must return exactly the rows of the forced
// row-heap scan at DOP 1 and 4, including on deeply nested OR/AND
// shapes with empty disjuncts, duplicate terms, and all-false/all-true
// branches.
func TestPlanEquivalenceColumnar(t *testing.T) {
	cc, tb := testDB(t, 4000)
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}
	if !tb.ColumnarReady() {
		t.Fatal("columnar sidecar not fresh after EnableColumnar")
	}
	db := &catalogAndTable{cat: cc, tb: tb}
	preds := []expr.Expr{
		// Wide disjunction: the adaptive OR ordering's home turf.
		expr.NewOr(
			expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c0")},
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(95)},
			expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(3)},
			expr.In{Col: "cat", Vals: []value.Value{value.Str("c5"), value.Str("c6")}},
		),
		// Conjunction with a duplicated term and a vacuous TRUE branch.
		expr.NewAnd(
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(20)},
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(20)},
			expr.TrueExpr{},
			expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(60)},
		),
		// Deep nesting: OR of ANDs of ORs, with an empty disjunct (false)
		// and an all-false branch.
		expr.NewOr(
			expr.Or{},
			expr.NewAnd(
				expr.NewOr(
					expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c1")},
					expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")},
				),
				expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(50)},
			),
			expr.NewAnd(
				expr.FalseExpr{},
				expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(0)},
			),
		),
		// Empty conjunct (true) inside a NOT: everything, then nothing.
		expr.Not{Kid: expr.NewOr(expr.And{}, expr.FalseExpr{})},
		// Single-kid combiners collapse; counters must survive that.
		expr.Or{Kids: []expr.Expr{expr.And{Kids: []expr.Expr{
			expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(42)},
		}}}},
		expr.TrueExpr{},
	}
	sawColumnar := false
	for i, pred := range preds {
		pred := pred
		t.Run(fmt.Sprintf("pred%d", i), func(t *testing.T) {
			res := opt.ChooseAccessPath(db.tb, pred, opt.DefaultConfig())
			if s, ok := res.Plan.(*plan.SeqScan); ok && s.Columnar {
				sawColumnar = true
			}
			equivCheck(t, db, pred, opt.DefaultConfig())
			// Force the columnar scan shape regardless of the optimizer's
			// choice, so every predicate exercises the vectorized path.
			columnar := &plan.Filter{
				Child: &plan.SeqScan{Table: db.tb.Name, Columnar: true},
				Pred:  pred,
			}
			forced := &plan.Filter{Child: &plan.SeqScan{Table: db.tb.Name}, Pred: pred}
			want, _, err := refRun(db.cat, forced)
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range []int{1, 4} {
				got := checkAliased(t, db.cat, columnar, Options{DOP: dop, BatchSize: 64})
				if !sameRows(got, want) {
					t.Fatalf("columnar scan at dop=%d returned %d rows, forced row scan %d",
						dop, len(got), len(want))
				}
			}
		})
	}
	if !sawColumnar {
		t.Fatal("optimizer never flagged a columnar scan; harness is vacuous")
	}
}

// TestPlanEquivalenceMiningPredicate runs the paper's full pipeline:
// train a model on the table, derive upper envelopes, let the optimizer
// pick an access path for the envelope, and check that
// Filter(class) ∘ Predict ∘ <chosen path for envelope> matches
// Filter(class) ∘ Predict ∘ SeqScan at DOP 1 and 4.
func TestPlanEquivalenceMiningPredicate(t *testing.T) {
	cc, tb := testDB(t, 3000)

	// Label rows by a num threshold with the label column NOT derivable
	// from any index, then train a depth-limited tree on num alone.
	ts := &mining.TrainSet{Schema: value.MustSchema(value.Column{Name: "num", Kind: value.KindInt})}
	tb.Heap.Scan(func(_ storage.RID, rec []byte) bool {
		row, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		num := row[2]
		ts.Rows = append(ts.Rows, value.Tuple{num})
		cls := "low"
		if num.AsInt() >= 90 {
			cls = "high" // ~10% of rows: index-friendly class region
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

	for _, cls := range m.Classes() {
		env := der.Envelopes[cls.String()]
		if env == nil {
			t.Fatalf("no envelope for class %s", cls)
		}
		res := opt.ChooseAccessPath(tb, env, opt.DefaultConfig())
		classPred := expr.Cmp{Col: "dt.cls", Op: expr.OpEq, Val: cls}
		optimized := &plan.Filter{
			Child: &plan.Predict{Child: res.Plan, Model: "dt", As: "dt.cls"},
			Pred:  classPred,
		}
		forced := &plan.Filter{
			Child: &plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "dt", As: "dt.cls"},
			Pred:  classPred,
		}
		want, _, err := refRun(cc, forced)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("class %s matches no rows; test data is degenerate", cls)
		}
		for _, dop := range []int{1, 4} {
			got := checkAliased(t, cc, optimized, Options{DOP: dop, BatchSize: 64})
			if !sameRows(got, want) {
				t.Fatalf("class %s dop=%d: envelope plan %s returned %d rows, want %d",
					cls, dop, plan.Explain(res.Plan), len(got), len(want))
			}
		}
	}
}

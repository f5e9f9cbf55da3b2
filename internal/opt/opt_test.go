package opt

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// buildDB creates a table with a very skewed cat column ("rare" ~0.2%,
// "common" ~60%) plus a num column, with indexes on both.
func buildDB(t *testing.T, rows int) (*catalog.Catalog, *catalog.Table) {
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
	r := rand.New(rand.NewSource(5))
	for i := 0; i < rows; i++ {
		var cat string
		switch x := r.Float64(); {
		case x < 0.002:
			cat = "rare"
		case x < 0.6:
			cat = "common"
		default:
			cat = fmt.Sprintf("mid%d", r.Intn(4))
		}
		tb.Insert(value.Tuple{value.Int(int64(i)), value.Str(cat), value.Int(int64(r.Intn(1000)))})
	}
	if _, err := c.CreateIndex("ix_cat", "t", "cat"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix_num", "t", "num"); err != nil {
		t.Fatal(err)
	}
	tb.Analyze()
	return c, tb
}

func TestSelectivePredicateUsesIndex(t *testing.T) {
	_, tb := buildDB(t, 20000)
	res := ChooseAccessPath(tb, expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("rare")}, DefaultConfig())
	if res.Path != plan.AccessIndex {
		t.Fatalf("selective equality should use an index, got %s\n%s", res.Path, plan.Explain(res.Plan))
	}
	if res.IndexCost >= res.ScanCost {
		t.Error("index cost should beat scan cost for a selective predicate")
	}
}

func TestUnselectivePredicateUsesScan(t *testing.T) {
	_, tb := buildDB(t, 20000)
	res := ChooseAccessPath(tb, expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("common")}, DefaultConfig())
	if res.Path != plan.AccessSeqScan {
		t.Fatalf("unselective equality should scan, got %s", res.Path)
	}
}

func TestFalsePredicateUsesConstantScan(t *testing.T) {
	_, tb := buildDB(t, 1000)
	contradiction := expr.NewAnd(
		expr.Cmp{Col: "num", Op: expr.OpGt, Val: value.Int(10)},
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(5)},
	)
	res := ChooseAccessPath(tb, contradiction, DefaultConfig())
	if res.Path != plan.AccessConstant {
		t.Fatalf("contradiction should use constant scan, got %s", res.Path)
	}
	res = ChooseAccessPath(tb, expr.FalseExpr{}, DefaultConfig())
	if res.Path != plan.AccessConstant {
		t.Fatalf("FALSE should use constant scan, got %s", res.Path)
	}
}

func TestTruePredicateScansWithoutFilter(t *testing.T) {
	_, tb := buildDB(t, 1000)
	res := ChooseAccessPath(tb, expr.TrueExpr{}, DefaultConfig())
	if _, ok := res.Plan.(*plan.SeqScan); !ok {
		t.Fatalf("TRUE should plan a bare SeqScan, got %s", plan.Explain(res.Plan))
	}
}

func TestDisjunctionUsesIndexUnion(t *testing.T) {
	_, tb := buildDB(t, 20000)
	pred := expr.NewOr(
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("rare")},
		expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(7)},
	)
	res := ChooseAccessPath(tb, pred, DefaultConfig())
	if res.Path != plan.AccessIndexUnion {
		t.Fatalf("selective OR over two indexed columns should use index union, got %s\n%s",
			res.Path, plan.Explain(res.Plan))
	}
}

func TestDisjunctionWithUnindexedColumnScans(t *testing.T) {
	_, tb := buildDB(t, 20000)
	pred := expr.NewOr(
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("rare")},
		expr.Cmp{Col: "id", Op: expr.OpEq, Val: value.Int(3)}, // id not indexed
	)
	res := ChooseAccessPath(tb, pred, DefaultConfig())
	if res.Path != plan.AccessSeqScan {
		t.Fatalf("OR with an unindexable disjunct must scan, got %s", res.Path)
	}
}

func TestInPredicateExpandsToUnion(t *testing.T) {
	_, tb := buildDB(t, 20000)
	// Each num value covers ~0.1% of rows, so IN over two of them is
	// firmly below the scan/index crossover.
	pred := expr.In{Col: "num", Vals: []value.Value{value.Int(7), value.Int(13)}}
	res := ChooseAccessPath(tb, pred, DefaultConfig())
	if res.Path != plan.AccessIndexUnion {
		t.Fatalf("IN over indexed column should expand into an index union, got %s\n%s",
			res.Path, plan.Explain(res.Plan))
	}
	u := res.Plan.(*plan.Filter).Child.(*plan.IndexUnion)
	if len(u.Seeks) != 2 {
		t.Errorf("expected 2 seeks, got %d", len(u.Seeks))
	}
}

func TestDisjunctThresholdDegradesToScan(t *testing.T) {
	_, tb := buildDB(t, 5000)
	// Build a predicate whose DNF exceeds the budget.
	var ors []expr.Expr
	for i := 0; i < 4; i++ {
		ors = append(ors, expr.NewOr(
			expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(int64(i))},
			expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str(fmt.Sprintf("m%d", i))},
			expr.Cmp{Col: "id", Op: expr.OpEq, Val: value.Int(int64(i))},
		))
	}
	pred := expr.NewAnd(ors...) // 3^4 = 81 disjuncts
	cfg := DefaultConfig()
	cfg.MaxDisjuncts = 16
	res := ChooseAccessPath(tb, pred, cfg)
	if res.Path != plan.AccessSeqScan {
		t.Fatalf("over-budget predicate should degrade to scan, got %s", res.Path)
	}
	// The plan must still filter with the original predicate.
	f, ok := res.Plan.(*plan.Filter)
	if !ok {
		t.Fatal("scan fallback must keep a filter")
	}
	if f.Pred.String() != pred.String() {
		t.Error("fallback filter should be the original predicate")
	}
}

func TestCompositePrefixSeek(t *testing.T) {
	c := catalog.New()
	tb, _ := c.CreateTable("t2", value.MustSchema(
		value.Column{Name: "a", Kind: value.KindString},
		value.Column{Name: "b", Kind: value.KindInt},
	))
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 10000; i++ {
		tb.Insert(value.Tuple{value.Str(fmt.Sprintf("g%d", r.Intn(50))), value.Int(int64(r.Intn(200)))})
	}
	if _, err := c.CreateIndex("ix_ab", "t2", "a", "b"); err != nil {
		t.Fatal(err)
	}
	tb.Analyze()
	pred := expr.NewAnd(
		expr.Cmp{Col: "a", Op: expr.OpEq, Val: value.Str("g7")},
		expr.Cmp{Col: "b", Op: expr.OpGe, Val: value.Int(100)},
		expr.Cmp{Col: "b", Op: expr.OpLt, Val: value.Int(120)},
	)
	res := ChooseAccessPath(tb, pred, DefaultConfig())
	if res.Path != plan.AccessIndex && res.Path != plan.AccessIndexUnion {
		t.Fatalf("eq+range over composite index should use the index, got %s\n%s", res.Path, plan.Explain(res.Plan))
	}
	// With a wide IN-expansion budget the integer range is enumerated
	// into equality seeks; with a narrow budget it stays a range seek.
	// Either form must consume the full composite prefix.
	narrow := DefaultConfig()
	narrow.MaxInExpansion = 4
	res = ChooseAccessPath(tb, pred, narrow)
	if res.Path != plan.AccessIndex {
		t.Fatalf("narrow budget should give one range seek, got %s\n%s", res.Path, plan.Explain(res.Plan))
	}
	seek := res.Plan.(*plan.Filter).Child.(*plan.IndexSeek)
	_, _, hasLo := seek.Range.Lo()
	_, _, hasHi := seek.Range.Hi()
	if len(seek.EqVals) != 1 || !hasLo || !hasHi {
		t.Errorf("seek should have 1 eq val and both range bounds: %s", plan.Describe(seek))
	}
}

// TestPlanResultMatchesScanFilter is the optimizer's correctness
// property: whatever access path is chosen, results equal scan+filter.
func TestPlanResultMatchesScanFilter(t *testing.T) {
	c, tb := buildDB(t, 8000)
	r := rand.New(rand.NewSource(77))
	cats := []value.Value{
		value.Str("rare"), value.Str("common"), value.Str("mid0"),
		value.Str("mid1"), value.Str("mid2"), value.Str("nonexistent"),
	}
	ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	randAtom := func() expr.Expr {
		switch r.Intn(4) {
		case 0:
			return expr.Cmp{Col: "cat", Op: expr.OpEq, Val: cats[r.Intn(len(cats))]}
		case 1:
			return expr.Cmp{Col: "num", Op: ops[r.Intn(len(ops))], Val: value.Int(int64(r.Intn(1000)))}
		case 2:
			return expr.In{Col: "cat", Vals: []value.Value{cats[r.Intn(len(cats))], cats[r.Intn(len(cats))]}}
		default:
			return expr.Cmp{Col: "id", Op: ops[r.Intn(len(ops))], Val: value.Int(int64(r.Intn(8000)))}
		}
	}
	for i := 0; i < 120; i++ {
		var pred expr.Expr
		switch r.Intn(4) {
		case 0:
			pred = randAtom()
		case 1:
			pred = expr.NewAnd(randAtom(), randAtom())
		case 2:
			pred = expr.NewOr(randAtom(), randAtom())
		default:
			pred = expr.NewOr(expr.NewAnd(randAtom(), randAtom()), randAtom())
		}
		res := ChooseAccessPath(tb, pred, DefaultConfig())
		got, _, err := exec.RunOpts(c, res.Plan, exec.Options{})
		if err != nil {
			t.Fatalf("pred %s: %v", pred, err)
		}
		if want := scanFilter(t, tb, pred); !sameRows(got, want) {
			t.Fatalf("pred %s (%s): got %d rows, want %d\n%s",
				pred, res.Path, len(got), len(want), plan.Explain(res.Plan))
		}
	}
}

// scanFilter is the oracle: every heap row the predicate accepts,
// evaluated one row at a time with no executor code involved (the
// exec package's own per-row reference lives in its test files and
// cannot be imported from here).
func scanFilter(t *testing.T, tb *catalog.Table, pred expr.Expr) []value.Tuple {
	t.Helper()
	var rows []value.Tuple
	err := tb.Heap.Scan(func(_ storage.RID, rec []byte) bool {
		row, derr := value.DecodeTuple(rec)
		if derr != nil {
			t.Fatal(derr)
		}
		if pred.Eval(tb.Schema, row) {
			rows = append(rows, row)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sameRows(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(t value.Tuple) string { return t.String() }
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func TestNoStatsStillPlans(t *testing.T) {
	c := catalog.New()
	tb, _ := c.CreateTable("t3", value.MustSchema(value.Column{Name: "x", Kind: value.KindInt}))
	for i := 0; i < 100; i++ {
		tb.Insert(value.Tuple{value.Int(int64(i))})
	}
	// No Analyze call: optimizer must not panic and must produce a
	// correct plan.
	pred := expr.Cmp{Col: "x", Op: expr.OpEq, Val: value.Int(5)}
	res := ChooseAccessPath(tb, pred, DefaultConfig())
	rows, _, err := exec.RunOpts(c, res.Plan, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
}

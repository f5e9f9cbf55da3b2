package opt

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
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

// matcherDB is a table of INT, FLOAT and TEXT columns, some named in
// upper case, under composite indexes that share and reorder them.
func matcherDB(t *testing.T) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.New()
	tb, err := c.CreateTable("m", value.MustSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "B", Kind: value.KindInt},
		value.Column{Name: "c", Kind: value.KindFloat},
		value.Column{Name: "d", Kind: value.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		tb.Insert(value.Tuple{value.Int(int64(r.Intn(20))), value.Int(int64(r.Intn(50))),
			value.Float(float64(r.Intn(40)) / 4), value.Str(fmt.Sprintf("s%d", r.Intn(10)))})
	}
	for _, ix := range [][]string{{"a", "b", "c"}, {"B"}, {"d", "A"}, {"c", "d", "a"}} {
		if _, err := c.CreateIndex("ix_"+fmt.Sprint(ix), "m", ix...); err != nil {
			t.Fatal(err)
		}
	}
	tb.Analyze()
	return c, tb
}

// randConjunct draws conditions over cols: every comparison operator,
// INT, fractional FLOAT, TEXT and NULL literals, IN lists from empty to
// past a small expansion budget.
func randConjunct(r *rand.Rand, cols []string) expr.Conjunct {
	val := func() value.Value {
		switch r.Intn(8) {
		case 0:
			return value.Float(float64(r.Intn(80))/4 - 1)
		case 1:
			return value.Str(fmt.Sprintf("s%d", r.Intn(12)))
		case 2:
			if r.Intn(4) == 0 {
				return value.Null()
			}
		}
		return value.Int(int64(r.Intn(24) - 2))
	}
	var c expr.Conjunct
	for range 1 + r.Intn(5) {
		col := cols[r.Intn(len(cols))]
		if r.Intn(4) == 0 {
			vals := make([]value.Value, r.Intn(7))
			for i := range vals {
				vals[i] = val()
			}
			c.Conds = append(c.Conds, expr.In{Col: col, Vals: vals})
			continue
		}
		c.Conds = append(c.Conds, expr.Cmp{Col: col, Op: expr.CmpOp(r.Intn(6)), Val: val()})
	}
	return c
}

func renderConds(conds []expr.Expr) string {
	var b []byte
	for _, c := range conds {
		b = append(expr.Append(b, c), "; "...)
	}
	return string(b)
}

// TestMatcherMatchesOracle: the slice-based matcher rewrites every
// conjunct as the map-based oracle does, and picks the same seeks with
// the same estimate; only the key filter is new.
func TestMatcherMatchesOracle(t *testing.T) {
	_, tb := matcherDB(t)
	ts, ixs := tb.Stats(), tb.Indexes()
	r := rand.New(rand.NewSource(11))
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		cfg := DefaultConfig()
		cfg.MaxInExpansion = []int{0, 2, 4, 128}[r.Intn(4)]
		c := randConjunct(r, []string{"a", "A", "b", "B", "c", "d", "e"})
		ib, want := intBounds(tb, c), oracleIntBounds(tb, c)
		if got, want := renderConds(ib.Conds), renderConds(want.Conds); got != want {
			t.Fatalf("intBounds(%s) = %s, oracle %s", renderConds(c.Conds), got, want)
		}
		ri, wantRI := rangeToIn(tb, ib, cfg), oracleRangeToIn(tb, ib, cfg)
		if got, want := renderConds(ri.Conds), renderConds(wantRI.Conds); got != want {
			t.Fatalf("rangeToIn(%s) = %s, oracle %s", renderConds(ib.Conds), got, want)
		}
		seeks, estRows, ok := bestSeeks(nil, tb, ts, ixs, ri, cfg)
		old := oracleBestSeeks(tb, ts, ri, cfg)
		if ok != (old != nil) {
			t.Fatalf("bestSeeks(%s): ok %v, oracle found %v", renderConds(ri.Conds), ok, old != nil)
		}
		if !ok {
			seen["no index"]++
			continue
		}
		if estRows != old.estRows || len(seeks) != len(old.seeks) {
			t.Fatalf("bestSeeks(%s): %d seeks estimated at %v rows, oracle %d at %v",
				renderConds(ri.Conds), len(seeks), estRows, len(old.seeks), old.estRows)
		}
		for j, s := range seeks {
			o := old.seeks[j]
			if s.Table != o.Table || s.Index != o.Index || s.Range != o.Range || !slices.Equal(s.EqVals, o.EqVals) {
				t.Fatalf("bestSeeks(%s): seek %d is %s, oracle %s", renderConds(ri.Conds), j, plan.Describe(s), plan.Describe(o))
			}
		}
		seen[fmt.Sprintf("%d seeks, key filter %v", min(len(seeks), 2), len(seeks) > 0 && len(seeks[0].KeyFilter) > 0)]++
	}
	t.Logf("shapes: %v", seen)
}

// TestKeyFilterPlansMatchScan: whatever key filters the optimizer puts
// on its seeks, the plan returns exactly the rows a filtered scan does.
func TestKeyFilterPlansMatchScan(t *testing.T) {
	c, tb := matcherDB(t)
	r := rand.New(rand.NewSource(12))
	filtered := 0
	for range 1500 {
		kids := make([]expr.Expr, 1+r.Intn(3))
		for i := range kids {
			kids[i] = randConjunct(r, []string{"a", "A", "b", "B", "c", "d"}).Expr()
		}
		pred := expr.NewOr(kids...)
		res := ChooseAccessPath(tb, pred, DefaultConfig())
		if strings.Contains(plan.Explain(res.Plan), " key(") {
			filtered++
		}
		got, _, err := exec.RunOpts(c, res.Plan, exec.Options{})
		if err != nil {
			t.Fatalf("pred %s: %v", pred, err)
		}
		if want := scanFilter(t, tb, pred); !sameRows(got, want) {
			t.Fatalf("pred %s (%s): got %d rows, want %d\n%s", pred, res.Path, len(got), len(want), plan.Explain(res.Plan))
		}
	}
	if filtered < 100 {
		t.Fatalf("only %d plans filter index keys", filtered)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// gridDB is an 80 × 80 grid of (age, income) under one composite
// index, with an unindexed visits column beside it.
func gridDB(t *testing.T) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.New()
	tb, err := c.CreateTable("g", value.MustSchema(
		value.Column{Name: "age", Kind: value.KindInt},
		value.Column{Name: "income", Kind: value.KindInt},
		value.Column{Name: "visits", Kind: value.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 6400 {
		tb.Insert(value.Tuple{value.Int(int64(i % 80)), value.Int(int64(i / 80)), value.Int(int64(i % 50))})
	}
	if _, err := c.CreateIndex("ix_age_income", "g", "age", "income"); err != nil {
		t.Fatal(err)
	}
	tb.Analyze()
	return c, tb
}

// TestPointUnionWalksOnce: the naive Bayes point shape — an envelope of
// two disjuncts on an unindexed column, under a point of the indexed
// grid — asks for the same seek twice, and the plan walks it once.
func TestPointUnionWalksOnce(t *testing.T) {
	c, tb := gridDB(t)
	pred := expr.NewAnd(
		expr.Cmp{Col: "age", Op: expr.OpEq, Val: value.Int(42)},
		expr.Cmp{Col: "income", Op: expr.OpEq, Val: value.Int(65)},
		expr.NewOr(
			expr.Cmp{Col: "visits", Op: expr.OpLe, Val: value.Int(3)},
			expr.Cmp{Col: "visits", Op: expr.OpGe, Val: value.Int(40)},
		),
	)
	res := ChooseAccessPath(tb, pred, DefaultConfig())
	if res.Path != plan.AccessIndex || plan.Describe(res.Plan.Children()[0]) != "IndexSeek(g.ix_age_income =42 =65)" {
		t.Fatalf("the point shape plans %s:\n%s", res.Path, plan.Explain(res.Plan))
	}
	got, _, err := exec.RunOpts(c, res.Plan, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := scanFilter(t, tb, pred); !sameRows(got, want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
}

// boxes is an envelope-shaped predicate of n disjuncts: per disjunct, a
// range on age, a fractional bound on income that tightens to an INT one,
// and a condition on an unindexed column.
func boxes(n int) expr.Expr {
	kids := make([]expr.Expr, n)
	for i := range kids {
		kids[i] = expr.NewAnd(
			expr.Cmp{Col: "age", Op: expr.OpLe, Val: value.Int(int64(2 * i))},
			expr.Cmp{Col: "age", Op: expr.OpGt, Val: value.Float(float64(2*i) - 1.5)},
			expr.Cmp{Col: "income", Op: expr.OpGt, Val: value.Float(74.5 - float64(i))},
			expr.Cmp{Col: "visits", Op: expr.OpNe, Val: value.Int(int64(i))},
		)
	}
	return expr.NewOr(kids...)
}

// TestAllocChooseAccessPath bounds what planning one more disjunct of
// an envelope allocates, normalization and estimation included: its
// conditions are matched to the index in slices, not maps, and only the
// winning index's seeks are built. A map-based matcher took 52.
func TestAllocChooseAccessPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const allocsPerDisjunct = 30
	_, tb := gridDB(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		pred := boxes(n)
		if res := ChooseAccessPath(tb, pred, DefaultConfig()); res.Path != plan.AccessIndexUnion {
			t.Fatalf("%d boxes plan %s:\n%s", n, res.Path, plan.Explain(res.Plan))
		}
		return testing.AllocsPerRun(50, func() { ChooseAccessPath(tb, pred, DefaultConfig()) })
	}
	two, eight := allocs(2), allocs(8)
	perDisjunct := (eight - two) / 6
	t.Logf("%v allocations for 2 disjuncts, %v for 8: %.1f per disjunct", two, eight, perDisjunct)
	if perDisjunct > allocsPerDisjunct {
		t.Fatalf("planning allocates %.1f times per disjunct (at most %d)", perDisjunct, allocsPerDisjunct)
	}
}

package stats

import (
	"math"
	"math/rand"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/value"
)

var schema = value.MustSchema(
	value.Column{Name: "cat", Kind: value.KindString},
	value.Column{Name: "num", Kind: value.KindInt},
	value.Column{Name: "wide", Kind: value.KindFloat},
)

// buildTable returns stats plus the raw rows for ground-truth checks.
func buildTable(n int, seed int64) (*TableStats, []value.Tuple) {
	r := rand.New(rand.NewSource(seed))
	cats := []string{"a", "b", "c", "d"}
	rows := make([]value.Tuple, n)
	for i := range rows {
		var cat value.Value
		if r.Intn(50) == 0 {
			cat = value.Null()
		} else {
			// Skewed: "a" is common, "d" is rare.
			x := r.Float64()
			switch {
			case x < 0.6:
				cat = value.Str(cats[0])
			case x < 0.85:
				cat = value.Str(cats[1])
			case x < 0.98:
				cat = value.Str(cats[2])
			default:
				cat = value.Str(cats[3])
			}
		}
		rows[i] = value.Tuple{
			cat,
			value.Int(int64(r.Intn(20))),
			value.Float(r.Float64() * 10000), // high cardinality -> histogram
		}
	}
	ts := Build(schema, int64(n), func(emit func(value.Tuple)) {
		for _, t := range rows {
			emit(t)
		}
	})
	return ts, rows
}

// trueFraction computes the actual fraction of rows satisfying e.
func trueFraction(rows []value.Tuple, e expr.Expr) float64 {
	n := 0
	for _, t := range rows {
		if e.Eval(schema, t) {
			n++
		}
	}
	return float64(n) / float64(len(rows))
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: estimate %.4f vs actual %.4f (tol %.4f)", name, got, want, tol)
	}
}

func TestBuildBasics(t *testing.T) {
	ts, _ := buildTable(20000, 1)
	if ts.RowCount != 20000 {
		t.Fatalf("RowCount = %d", ts.RowCount)
	}
	cat := ts.Col("CAT") // case-insensitive lookup
	if cat == nil {
		t.Fatal("missing cat stats")
	}
	if cat.Exact == nil {
		t.Error("low-cardinality column should keep exact counts")
	}
	if cat.Distinct != 4 {
		t.Errorf("cat distinct = %d, want 4", cat.Distinct)
	}
	if cat.NullCount == 0 {
		t.Error("expected some nulls in cat")
	}
	wide := ts.Col("wide")
	if wide.Exact != nil {
		t.Error("high-cardinality column should spill to histogram")
	}
	if len(wide.Hist) == 0 {
		t.Error("expected histogram buckets")
	}
	var histTotal int64
	for _, b := range wide.Hist {
		histTotal += b.Count
	}
	if histTotal != wide.Count {
		t.Errorf("histogram total %d != count %d", histTotal, wide.Count)
	}
	if lo, hi := wide.Hist[0].Lo, wide.Hist[len(wide.Hist)-1].Hi; value.Compare(lo, hi) >= 0 {
		t.Errorf("histogram spans [%v, %v]", lo, hi)
	}
}

func TestExactSelectivities(t *testing.T) {
	ts, rows := buildTable(20000, 2)
	cases := []expr.Expr{
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("d")},
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("a")},
		expr.Cmp{Col: "cat", Op: expr.OpNe, Val: value.Str("a")},
		expr.In{Col: "cat", Vals: []value.Value{value.Str("c"), value.Str("d")}},
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(5)},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(15)},
		expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(0)},
	}
	for _, e := range cases {
		within(t, e.String(), ts.Selectivity(e), trueFraction(rows, e), 0.005)
	}
	// Absent value has zero estimated selectivity under exact counts.
	if s := ts.Selectivity(expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("zzz")}); s != 0 {
		t.Errorf("absent value selectivity = %f, want 0", s)
	}
}

func TestHistogramRangeSelectivity(t *testing.T) {
	ts, rows := buildTable(20000, 3)
	cases := []expr.Expr{
		expr.Cmp{Col: "wide", Op: expr.OpLt, Val: value.Float(2500)},
		expr.Cmp{Col: "wide", Op: expr.OpGt, Val: value.Float(9000)},
		expr.NewAnd(
			expr.Cmp{Col: "wide", Op: expr.OpGe, Val: value.Float(1000)},
			expr.Cmp{Col: "wide", Op: expr.OpLt, Val: value.Float(1500)},
		),
	}
	for _, e := range cases {
		within(t, e.String(), ts.Selectivity(e), trueFraction(rows, e), 0.03)
	}
}

// TestEqualDepthBalance checks the equi-depth histogram of a skewed
// column: every bucket but the last holds ceil(n/64) values, the last
// the rest, and the buckets ascend without overlap.
func TestEqualDepthBalance(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n = 10000
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = value.Tuple{value.Null(), value.Null(), value.Float(math.Exp(r.NormFloat64()))}
	}
	cs := Build(schema, n, func(emit func(value.Tuple)) {
		for _, t := range rows {
			emit(t)
		}
	}).Col("wide")
	if cs.Exact != nil || cs.Distinct != n {
		t.Fatalf("exact = %d values, distinct = %d; want a histogram over %d distinct values", len(cs.Exact), cs.Distinct, n)
	}
	per := int64((n + NumBuckets - 1) / NumBuckets)
	var total int64
	for i, bk := range cs.Hist {
		total += bk.Count
		if i < len(cs.Hist)-1 && bk.Count != per || bk.Count > per {
			t.Errorf("bucket %d holds %d values, want %d", i, bk.Count, per)
		}
		if value.Compare(bk.Lo, bk.Hi) > 0 || i > 0 && value.Compare(cs.Hist[i-1].Hi, bk.Lo) >= 0 {
			t.Errorf("bucket %d [%v, %v] is out of order", i, bk.Lo, bk.Hi)
		}
	}
	if total != n {
		t.Errorf("buckets hold %d values, want %d", total, n)
	}
}

// TestEqualDepthDegenerate checks that all-equal values count as one
// distinct value, whether the column keeps exact counts or a histogram.
func TestEqualDepthDegenerate(t *testing.T) {
	rows := make([]value.Tuple, 1000)
	for i := range rows {
		rows[i] = value.Tuple{value.Str("a"), value.Int(5), value.Float(5)}
	}
	ts := Build(schema, int64(len(rows)), func(emit func(value.Tuple)) {
		for _, t := range rows {
			emit(t)
		}
	})
	for _, col := range []string{"cat", "num", "wide"} {
		cs := ts.Col(col)
		if cs.Distinct != 1 || len(cs.Exact) != 1 || cs.Exact[0].Count != 1000 {
			t.Errorf("%s: distinct = %d, exact = %v; want one value counted 1000 times", col, cs.Distinct, cs.Exact)
		}
	}
	var cs ColumnStats
	histogram(&cs, []float64{5, 5, 5, 5}, value.Float)
	if cs.Distinct != 1 {
		t.Errorf("histogram of all-equal values: distinct = %d, want 1", cs.Distinct)
	}
	for i, bk := range cs.Hist {
		if value.Compare(bk.Lo, value.Float(5)) != 0 || value.Compare(bk.Hi, value.Float(5)) != 0 {
			t.Errorf("bucket %d = [%v, %v], want [5, 5]", i, bk.Lo, bk.Hi)
		}
	}
}

func TestBooleanCombinators(t *testing.T) {
	ts, rows := buildTable(20000, 4)
	and := expr.NewAnd(
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("b")},
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(10)},
	)
	within(t, "independent AND", ts.Selectivity(and), trueFraction(rows, and), 0.02)
	or := expr.NewOr(
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("d")},
		expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(3)},
	)
	within(t, "independent OR", ts.Selectivity(or), trueFraction(rows, or), 0.02)
	not := expr.Not{Kid: expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("a")}}
	if s := ts.Selectivity(not); s < 0 || s > 1 {
		t.Errorf("NOT selectivity out of range: %f", s)
	}
	if ts.Selectivity(expr.TrueExpr{}) != 1 || ts.Selectivity(expr.FalseExpr{}) != 0 {
		t.Error("constant selectivities wrong")
	}
}

func TestUnknownColumnDefault(t *testing.T) {
	ts, _ := buildTable(100, 5)
	s := ts.Selectivity(expr.Cmp{Col: "nope", Op: expr.OpEq, Val: value.Int(1)})
	if s != 1.0/3.0 {
		t.Errorf("unknown column should use default selectivity, got %f", s)
	}
	var nilTS *TableStats
	if nilTS.Selectivity(expr.TrueExpr{}) != 1.0/3.0 {
		t.Error("nil stats should use default selectivity")
	}
}

func TestEmptyTable(t *testing.T) {
	ts := Build(schema, 0, func(func(value.Tuple)) {})
	if ts.RowCount != 0 {
		t.Fatal("empty table should have zero rows")
	}
	if s := ts.Selectivity(expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("a")}); s != 0 {
		t.Errorf("selectivity over empty table = %f, want 0", s)
	}
}

func TestSelectivityAlwaysInRange(t *testing.T) {
	ts, _ := buildTable(5000, 6)
	r := rand.New(rand.NewSource(7))
	ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	for i := 0; i < 500; i++ {
		var e expr.Expr = expr.Cmp{
			Col: []string{"cat", "num", "wide"}[r.Intn(3)],
			Op:  ops[r.Intn(len(ops))],
			Val: value.Float(r.Float64()*12000 - 1000),
		}
		if r.Intn(2) == 0 {
			e = expr.NewOr(e, expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(int64(r.Intn(25)))})
		}
		s := ts.Selectivity(e)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("selectivity out of range for %s: %f", e, s)
		}
	}
}

// TestInterpSingletonBucket pins the singleton-bucket fix: a bucket
// whose Lo == Hi contributes its whole count only when the probe range
// actually contains that value. The only reachable path through interp
// for a singleton is the "straddle" branch with an inverted range (e.g.
// x > 10 AND x < 5), which previously counted the entire bucket.
func TestInterpSingletonBucket(t *testing.T) {
	bk := Bucket{Lo: value.Int(7), Hi: value.Int(7), Count: 10}
	if f := interp(value.Int(6), value.Int(8), bk); f != 1 {
		t.Errorf("containing range: interp = %f, want 1", f)
	}
	if f := interp(value.Int(8), value.Int(9), bk); f != 0 {
		t.Errorf("disjoint range: interp = %f, want 0", f)
	}
	if f := interp(value.Int(10), value.Int(5), bk); f != 0 {
		t.Errorf("inverted range: interp = %f, want 0", f)
	}

	// End-to-end: the unsatisfiable conjunction x > 10 AND x < 5 over a
	// histogram with a singleton bucket must estimate zero, not count
	// the singleton bucket wholesale.
	cs := &ColumnStats{
		Count:    100,
		Distinct: 2,
		Hist: []Bucket{
			{Lo: value.Int(7), Hi: value.Int(7), Count: 60},
			{Lo: value.Int(20), Hi: value.Int(30), Count: 40},
		},
	}
	ts := &TableStats{RowCount: 100, Cols: map[string]*ColumnStats{"x": cs}}
	e := expr.NewAnd(
		expr.Cmp{Col: "x", Op: expr.OpGt, Val: value.Int(10)},
		expr.Cmp{Col: "x", Op: expr.OpLt, Val: value.Int(5)},
	)
	if s := ts.Selectivity(e); s != 0 {
		t.Errorf("x > 10 AND x < 5 selectivity = %f, want 0", s)
	}
}

// TestInDedupe pins the IN-list dedupe fix: duplicate literals must not
// multiply the estimate.
func TestInDedupe(t *testing.T) {
	ts, rows := buildTable(20000, 8)
	dup := expr.In{Col: "cat", Vals: []value.Value{
		value.Str("d"), value.Str("d"), value.Str("d"),
	}}
	single := expr.In{Col: "cat", Vals: []value.Value{value.Str("d")}}
	if got, want := ts.Selectivity(dup), ts.Selectivity(single); got != want {
		t.Errorf("IN (d,d,d) = %f, IN (d) = %f; duplicates must not change the estimate", got, want)
	}
	within(t, "IN (d,d,d)", ts.Selectivity(dup), trueFraction(rows, dup), 0.005)

	got := DedupeValues([]value.Value{value.Int(1), value.Int(1), value.Int(2), value.Int(1)})
	if len(got) != 2 || !value.Equal(got[0], value.Int(1)) || !value.Equal(got[1], value.Int(2)) {
		t.Errorf("DedupeValues = %v", got)
	}
}

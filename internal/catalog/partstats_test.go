package catalog

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/stats"
	"minequery/internal/value"
)

// TestPartitionedAnalyzeMatchesUnpartitioned: ANALYZE of a partitioned
// table gives the statistics, and so the estimates, that it gives an
// ordinary table holding the same rows — over NULLs (which route to
// partition 0), an empty partition, and columns past the exact-count
// bound, whose histograms a per-partition build would cut differently.
func TestPartitionedAnalyzeMatchesUnpartitioned(t *testing.T) {
	schema := value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "name", Kind: value.KindString},
		value.Column{Name: "f", Kind: value.KindFloat},
	)
	c := New()
	// Partition 2, [100, 1000), stays empty.
	part, err := c.CreatePartitionedTable("p", schema, "num", intVals(0, 100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.CreateTable("u", schema)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(55))
	nums := []int64{-40, -3, 0, 7, 7, 42, 99, 1000, 5000}
	for i := range 3000 {
		row := value.Tuple{
			value.Int(int64(i)),
			value.Int(nums[r.Intn(len(nums))] + int64(r.Intn(3))),
			value.Str("n" + strconv.Itoa(r.Intn(30))),
			value.Float(float64(r.Intn(2000)) / 8),
		}
		for col := 1; col < len(row); col++ {
			if r.Intn(10) == 0 {
				row[col] = value.Null()
			}
		}
		for _, tb := range []*Table{part, plain} {
			if _, err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := part.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if got.Col("id").Exact != nil || got.Col("f").Exact != nil || got.Col("name").Exact == nil {
		t.Fatal("id and f must spill into histograms and name stay exact")
	}
	checkSameStats(t, got, want)
	for _, e := range []expr.Expr{
		expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(700)},
		expr.NewAnd(expr.Cmp{Col: "id", Op: expr.OpGe, Val: value.Int(1200)}, expr.Cmp{Col: "id", Op: expr.OpLe, Val: value.Int(1300)}),
		expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(7)},
		expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(100)},
		expr.Cmp{Col: "name", Op: expr.OpNe, Val: value.Str("n3")},
		expr.In{Col: "name", Vals: []value.Value{value.Str("n1"), value.Str("n2"), value.Str("zz")}},
		expr.Cmp{Col: "f", Op: expr.OpGt, Val: value.Float(200)},
		expr.Cmp{Col: "f", Op: expr.OpEq, Val: value.Float(12.5)},
		expr.NewOr(expr.Cmp{Col: "f", Op: expr.OpLt, Val: value.Float(10)}, expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(0)}),
	} {
		if g, w := got.Selectivity(e), want.Selectivity(e); g != w {
			t.Errorf("Selectivity(%s) = %v partitioned, %v unpartitioned", e, g, w)
		}
	}
}

// checkSameStats requires got and want to hold the same counts, and
// exact values and bucket bounds that value.Compare ties.
func checkSameStats(t *testing.T, got, want *stats.TableStats) {
	t.Helper()
	if got.RowCount != want.RowCount || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%d rows in %d columns, unpartitioned %d in %d", got.RowCount, len(got.Cols), want.RowCount, len(want.Cols))
	}
	for name, w := range want.Cols {
		g := got.Cols[name]
		if g == nil {
			t.Fatalf("%s: no statistics", name)
		}
		shape := func(cs *stats.ColumnStats) string {
			return fmt.Sprintf("%d values, %d NULLs, %d distinct, exact %v with %d, %d buckets",
				cs.Count, cs.NullCount, cs.Distinct, cs.Exact != nil, len(cs.Exact), len(cs.Hist))
		}
		if shape(g) != shape(w) {
			t.Fatalf("%s: %s; unpartitioned %s", name, shape(g), shape(w))
		}
		for i, vc := range w.Exact {
			if value.Compare(g.Exact[i].Val, vc.Val) != 0 || g.Exact[i].Count != vc.Count {
				t.Fatalf("%s: exact count %d is %v×%d, unpartitioned %v×%d", name, i, g.Exact[i].Val, g.Exact[i].Count, vc.Val, vc.Count)
			}
		}
		for i, bk := range w.Hist {
			gb := g.Hist[i]
			if value.Compare(gb.Lo, bk.Lo) != 0 || value.Compare(gb.Hi, bk.Hi) != 0 || gb.Count != bk.Count {
				t.Fatalf("%s: bucket %d is %+v, unpartitioned %+v", name, i, gb, bk)
			}
		}
	}
}

package stats_test

import (
	"fmt"
	"math/rand"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/stats"
	"minequery/internal/value"
)

// A partitioned table's statistics come from the one build an ordinary
// table gets, over a heap whose scan visits the partitions in order;
// nothing merges per-partition statistics. These tests hold that over
// the row shapes a merge would get wrong or had to special-case.

var partSchema = value.MustSchema(
	value.Column{Name: "cat", Kind: value.KindString},
	value.Column{Name: "num", Kind: value.KindInt},
	value.Column{Name: "wide", Kind: value.KindFloat},
)

// partRows deals n rows over partSchema: a skewed low-cardinality TEXT
// column with NULLs, an INT num in [0, 20), and a FLOAT column of
// thousands of distinct values, which spills into a histogram.
func partRows(n int, seed int64) []value.Tuple {
	r := rand.New(rand.NewSource(seed))
	rows := make([]value.Tuple, n)
	for i := range rows {
		cat := value.Str([]string{"a", "a", "a", "b", "b", "c", "d"}[r.Intn(7)])
		if r.Intn(50) == 0 {
			cat = value.Null()
		}
		rows[i] = value.Tuple{cat, value.Int(int64(r.Intn(20))), value.Float(r.Float64() * 10000)}
	}
	return rows
}

// checkPartitionedMatchesPlain loads rows into a table range-partitioned
// on num at bounds and into an ordinary table, analyzes both, and
// requires the same statistics and estimates from each.
func checkPartitionedMatchesPlain(t *testing.T, rows []value.Tuple, bounds ...int64) {
	t.Helper()
	c := catalog.New()
	bv := make([]value.Value, len(bounds))
	for i, b := range bounds {
		bv[i] = value.Int(b)
	}
	part, err := c.CreatePartitionedTable("p", partSchema, "num", bv)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.CreateTable("u", partSchema)
	if err != nil {
		t.Fatal(err)
	}
	var got, want *stats.TableStats
	for _, tb := range []*catalog.Table{part, plain} {
		for _, row := range rows {
			if _, err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, err = part.Analyze(); err != nil {
		t.Fatal(err)
	}
	if want, err = plain.Analyze(); err != nil {
		t.Fatal(err)
	}
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
	for _, e := range []expr.Expr{
		expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("d")},
		expr.Cmp{Col: "cat", Op: expr.OpNe, Val: value.Str("a")},
		expr.In{Col: "cat", Vals: []value.Value{value.Str("c"), value.Str("d")}},
		expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(5)},
		expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(12)},
		expr.Cmp{Col: "wide", Op: expr.OpLt, Val: value.Float(2500)},
		expr.Cmp{Col: "wide", Op: expr.OpEq, Val: value.Float(42)},
		expr.NewAnd(expr.Cmp{Col: "wide", Op: expr.OpGe, Val: value.Float(1000)}, expr.Cmp{Col: "wide", Op: expr.OpLt, Val: value.Float(1500)}),
		expr.NewOr(expr.Cmp{Col: "wide", Op: expr.OpGt, Val: value.Float(9000)}, expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("b")}),
	} {
		if g, w := got.Selectivity(e), want.Selectivity(e); g != w {
			t.Errorf("Selectivity(%s) = %v partitioned, %v unpartitioned", e, g, w)
		}
	}
}

// TestMergeMatchesWholeTableBuild: four partitions of one row set give
// the whole-table statistics, exact columns and histograms alike.
func TestMergeMatchesWholeTableBuild(t *testing.T) {
	checkPartitionedMatchesPlain(t, partRows(20000, 9), 5, 10, 15)
}

// TestMergeEdgeCases: a table with no rows, one whose rows all land in
// one partition, one with empty partitions between full ones, one whose
// first partition holds only all-NULL rows (a NULL num routes there), and
// one with a column NULL in every row.
func TestMergeEdgeCases(t *testing.T) {
	with := func(rows []value.Tuple, f func(i int, row value.Tuple)) []value.Tuple {
		for i, row := range rows {
			f(i, row)
		}
		return rows
	}
	cases := []struct {
		name string
		rows []value.Tuple
	}{
		{"no rows", nil},
		{"one partition", with(partRows(2000, 10), func(_ int, row value.Tuple) { row[1] = value.Int(12) })},
		{"empty partitions between", with(partRows(2000, 11), func(i int, row value.Tuple) { row[1] = value.Int(int64(i%2) * 17) })},
		{"all-NULL partition", with(partRows(2000, 12), func(i int, row value.Tuple) {
			if i%5 == 0 {
				row[0], row[1], row[2] = value.Null(), value.Null(), value.Null()
			} else if row[1].AsInt() < 5 {
				row[1] = value.Int(row[1].AsInt() + 5)
			}
		})},
		{"all-NULL column", with(partRows(2000, 13), func(_ int, row value.Tuple) { row[2] = value.Null() })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkPartitionedMatchesPlain(t, tc.rows, 5, 10, 15) })
	}
}

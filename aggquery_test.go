package minequery

// Engine-level aggregation coverage: GROUP BY / aggregate queries
// through the full SQL → rewrite → plan → execute pipeline, checked
// for byte-identical output across DOP, storage format, access path,
// and baseline-vs-optimized execution; the self-describing ColumnMeta
// schema; the ErrUnsupportedQuery surface; partial-aggregate mode; and
// byte-exact EXPLAIN ANALYZE goldens for aggregate plans.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minequery/internal/agg"
)

// joinRows renders a result's rows one per line — aggregate output
// order is canonical (sorted group keys), so two correct executions
// must be byte-identical, not merely equal as multisets.
func joinRows(rows []Tuple) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

func TestAggregateGroupByMatchesHandComputed(t *testing.T) {
	e := seedEngine(t, 20000)
	ctx := context.Background()

	all, err := e.Query(ctx, "SELECT * FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	type accum struct {
		n, sum, min, max int64
	}
	bySeg := map[string]*accum{}
	for _, row := range all.Rows {
		seg, visits := row[4].AsString(), row[3].AsInt()
		a, ok := bySeg[seg]
		if !ok {
			a = &accum{min: visits, max: visits}
			bySeg[seg] = a
		} else {
			if visits < a.min {
				a.min = visits
			}
			if visits > a.max {
				a.max = visits
			}
		}
		a.n++
		a.sum += visits
	}

	res, err := e.Query(ctx,
		"SELECT segment, count(*), sum(visits), min(visits), max(visits), avg(visits) FROM customers GROUP BY segment")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(bySeg) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(bySeg))
	}
	for _, row := range res.Rows {
		want := bySeg[row[0].AsString()]
		if want == nil {
			t.Fatalf("unexpected group %s", row[0])
		}
		if row[1].AsInt() != want.n || row[2].AsInt() != want.sum ||
			row[3].AsInt() != want.min || row[4].AsInt() != want.max {
			t.Fatalf("group %s = %s, want n=%d sum=%d min=%d max=%d",
				row[0], row, want.n, want.sum, want.min, want.max)
		}
		wantAvg := float64(want.sum) / float64(want.n)
		if row[5].AsFloat() != wantAvg {
			t.Fatalf("group %s avg = %v, want %v", row[0], row[5], wantAvg)
		}
	}
}

// TestAggregateByteIdentityAcrossConfigs pins the tentpole invariant at
// the public API: one aggregate query finalizes byte-identical rows on
// the row heap and the columnar sidecar, at DOP 1 and 4, optimized and
// baseline, forced-seqscan and cost-chosen path.
func TestAggregateByteIdentityAcrossConfigs(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	queries := []string{
		"SELECT segment, count(*), sum(visits), avg(income) FROM customers WHERE age >= 3 GROUP BY segment",
		"SELECT count(*), min(age), max(age), avg(visits) FROM customers WHERE income <= 5",
		`SELECT m.segment, count(*), avg(visits) FROM customers
			PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
			GROUP BY m.segment`,
		`SELECT segment, m.segment, count(*) FROM customers
			PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
			WHERE m.segment = 'vip' GROUP BY segment, m.segment`,
	}
	for qi, sql := range queries {
		oracle, err := e.Query(ctx, sql, WithForcedPath("seqscan"), WithDOP(1))
		if err != nil {
			t.Fatalf("query %d: oracle: %v", qi, err)
		}
		want := joinRows(oracle.Rows)
		check := func(label string, opts ...QueryOption) {
			t.Helper()
			res, err := e.Query(ctx, sql, opts...)
			if err != nil {
				t.Fatalf("query %d (%s): %v", qi, label, err)
			}
			if got := joinRows(res.Rows); got != want {
				t.Fatalf("query %d (%s, path=%s, storage=%s) diverged\n got: %s\nwant: %s",
					qi, label, res.AccessPath, res.StorageFormat, got, want)
			}
		}
		check("optimized dop1", WithDOP(1))
		check("optimized dop4", WithDOP(4))
		check("baseline dop4", WithBaseline(), WithDOP(4))
		check("forced dop4", WithForcedPath("seqscan"), WithDOP(4))
	}

	// Same sweep on the columnar sidecar (the aggregate cut into column
	// groups); the row-path oracle above remains the reference.
	if err := e.EnableColumnar("customers"); err != nil {
		t.Fatal(err)
	}
	columnar := 0
	for qi, sql := range queries {
		oracle, err := e.Query(ctx, sql, WithForcedPath("seqscan"), WithDOP(1))
		if err != nil {
			t.Fatalf("query %d: oracle: %v", qi, err)
		}
		want := joinRows(oracle.Rows)
		for _, dop := range []int{1, 4} {
			res, err := e.Query(ctx, sql, WithDOP(dop))
			if err != nil {
				t.Fatalf("query %d (columnar dop%d): %v", qi, dop, err)
			}
			if got := joinRows(res.Rows); got != want {
				t.Fatalf("query %d (columnar dop%d, storage=%s) diverged\n got: %s\nwant: %s",
					qi, dop, res.StorageFormat, got, want)
			}
			if res.StorageFormat == "columnar" {
				columnar++
			}
		}
	}
	if columnar == 0 {
		t.Fatal("no aggregate execution ran on the columnar path; sweep is vacuous")
	}
}

func TestAggregateColumnMeta(t *testing.T) {
	e := seedEngine(t, 2000)
	trainNB(t, e)
	ctx := context.Background()

	res, err := e.Query(ctx, `SELECT m.segment, count(*), avg(visits) FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		GROUP BY m.segment`)
	if err != nil {
		t.Fatal(err)
	}
	want := []ColumnMeta{
		{Name: "m.segment", Kind: KindString, Source: SourceProjected},
		{Name: "count(*)", Kind: KindInt, Source: SourceAggregate},
		{Name: "avg(visits)", Kind: KindFloat, Source: SourceAggregate},
	}
	if len(res.Columns) != len(want) {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	for i, c := range res.Columns {
		if c != want[i] {
			t.Fatalf("column %d = %+v, want %+v", i, c, want[i])
		}
	}
	if got := res.ColumnNames(); strings.Join(got, ",") != "m.segment,count(*),avg(visits)" {
		t.Fatalf("ColumnNames = %v", got)
	}

	// Non-aggregate queries report every column as projected.
	plain, err := e.Query(ctx, "SELECT id, segment FROM customers LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plain.Columns {
		if c.Source != SourceProjected {
			t.Fatalf("non-aggregate column %+v not projected", c)
		}
	}
}

func TestUnsupportedAggregateShapes(t *testing.T) {
	e := seedEngine(t, 500)
	ctx := context.Background()
	cases := []struct {
		name string
		sql  string
	}{
		{"star with group by", "SELECT * FROM customers GROUP BY segment"},
		{"plain column not grouped", "SELECT id, count(*) FROM customers GROUP BY segment"},
		{"sum over text", "SELECT sum(segment) FROM customers"},
		{"avg over text", "SELECT segment, avg(segment) FROM customers GROUP BY segment"},
		{"duplicate select item", "SELECT sum(visits), sum(visits) FROM customers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.Query(ctx, tc.sql); !errors.Is(err, ErrUnsupportedQuery) {
				t.Fatalf("Query err = %v, want ErrUnsupportedQuery", err)
			}
			if _, err := e.Explain(tc.sql); !errors.Is(err, ErrUnsupportedQuery) {
				t.Fatalf("Explain err = %v, want ErrUnsupportedQuery", err)
			}
			if _, err := e.Prepare(tc.sql); !errors.Is(err, ErrUnsupportedQuery) {
				t.Fatalf("Prepare err = %v, want ErrUnsupportedQuery", err)
			}
		})
	}
	// Partial-aggregate mode is itself unsupported for non-aggregate
	// queries.
	if _, err := e.Query(ctx, "SELECT id FROM customers", WithPartialAggs()); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("partial of non-aggregate err = %v, want ErrUnsupportedQuery", err)
	}
}

// TestWithPartialAggsRoundTrip checks the shard half of scatter-gather
// at the public API: a partial-mode Result carries no rows but a wire
// state that, merged into a fresh table and finalized, reproduces the
// normal execution byte-for-byte. Merging the same wire from two
// "shards" doubles every count, which is exactly the coordinator's
// merge semantics.
func TestWithPartialAggsRoundTrip(t *testing.T) {
	e := seedEngine(t, 8000)
	ctx := context.Background()
	sql := "SELECT segment, count(*), sum(visits), avg(income) FROM customers GROUP BY segment"

	full, err := e.Query(ctx, sql, WithDOP(4))
	if err != nil {
		t.Fatal(err)
	}
	part, err := e.Query(ctx, sql, WithPartialAggs(), WithDOP(4))
	if err != nil {
		t.Fatal(err)
	}
	if part.Rows != nil {
		t.Fatalf("partial result carries %d rows, want none", len(part.Rows))
	}
	if part.PartialAgg == nil {
		t.Fatal("partial result has no wire state")
	}
	// The partial Result still self-describes the finalized output.
	if strings.Join(part.ColumnNames(), ",") != strings.Join(full.ColumnNames(), ",") {
		t.Fatalf("partial columns %v != full columns %v", part.Columns, full.Columns)
	}

	tab := mustAggTable(t, e, "customers", []string{"segment"}, []agg.Item{
		{Func: agg.None, Col: "segment"},
		{Func: agg.Count, Star: true},
		{Func: agg.Sum, Col: "visits"},
		{Func: agg.Avg, Col: "income"},
	})
	if err := tab.MergeWire(part.PartialAgg); err != nil {
		t.Fatal(err)
	}
	if got := joinRows(tab.Finalize()); got != joinRows(full.Rows) {
		t.Fatalf("merged partial diverged from full run\n got: %s\nwant: %s", got, joinRows(full.Rows))
	}

	// Two identical shards: counts and sums double, extrema hold.
	tab2 := mustAggTable(t, e, "customers", []string{"segment"}, []agg.Item{
		{Func: agg.None, Col: "segment"},
		{Func: agg.Count, Star: true},
		{Func: agg.Sum, Col: "visits"},
		{Func: agg.Avg, Col: "income"},
	})
	if err := tab2.MergeWire(part.PartialAgg); err != nil {
		t.Fatal(err)
	}
	if err := tab2.MergeWire(part.PartialAgg); err != nil {
		t.Fatal(err)
	}
	doubled := tab2.Finalize()
	for i, row := range doubled {
		if row[1].AsInt() != 2*full.Rows[i][1].AsInt() || row[2].AsInt() != 2*full.Rows[i][2].AsInt() {
			t.Fatalf("double-merge row %d = %s, want doubled counts of %s", i, row, full.Rows[i])
		}
	}

	// Ungrouped partials round-trip too (identity row on empty input is
	// produced at finalize, not by the shards).
	usql := "SELECT count(*), avg(visits) FROM customers WHERE age >= 9"
	ufull, err := e.Query(ctx, usql)
	if err != nil {
		t.Fatal(err)
	}
	upart, err := e.Query(ctx, usql, WithPartialAggs())
	if err != nil {
		t.Fatal(err)
	}
	utab := mustAggTable(t, e, "customers", nil, []agg.Item{
		{Func: agg.Count, Star: true},
		{Func: agg.Avg, Col: "visits"},
	})
	if err := utab.MergeWire(upart.PartialAgg); err != nil {
		t.Fatal(err)
	}
	if got := joinRows(utab.Finalize()); got != joinRows(ufull.Rows) {
		t.Fatalf("ungrouped merged partial = %s, want %s", got, joinRows(ufull.Rows))
	}
}

// mustAggTable builds an empty partial table for a query shape, resolved
// against the table's schema — the coordinator-side half of the wire
// protocol.
func mustAggTable(t *testing.T, e *Engine, table string, groupBy []string, items []agg.Item) *agg.Table {
	t.Helper()
	tb, ok := e.cat.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	spec, err := agg.Resolve(tb.Schema, groupBy, items)
	if err != nil {
		t.Fatal(err)
	}
	return agg.NewTable(spec)
}

// TestAggregateEdgeShapes covers LIMIT over groups, empty grouped
// results, the ungrouped identity row, and the constant-scan path (a
// provably-empty mining predicate never touching the table).
func TestAggregateEdgeShapes(t *testing.T) {
	e := seedEngine(t, 5000)
	trainNB(t, e)
	ctx := context.Background()

	unlimited, err := e.Query(ctx, "SELECT age, count(*) FROM customers GROUP BY age")
	if err != nil {
		t.Fatal(err)
	}
	limited, err := e.Query(ctx, "SELECT age, count(*) FROM customers GROUP BY age LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(limited.Rows))
	}
	if joinRows(limited.Rows) != joinRows(unlimited.Rows[:3]) {
		t.Fatalf("LIMIT did not take the canonical-order prefix\n got: %s\nwant: %s",
			joinRows(limited.Rows), joinRows(unlimited.Rows[:3]))
	}

	empty, err := e.Query(ctx, "SELECT segment, count(*) FROM customers WHERE age >= 99 GROUP BY segment")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 {
		t.Fatalf("empty grouped aggregate returned %d rows", len(empty.Rows))
	}

	ident, err := e.Query(ctx, "SELECT count(*), sum(visits), min(visits), avg(visits) FROM customers WHERE age >= 99")
	if err != nil {
		t.Fatal(err)
	}
	if len(ident.Rows) != 1 {
		t.Fatalf("ungrouped aggregate over empty input returned %d rows, want identity row", len(ident.Rows))
	}
	row := ident.Rows[0]
	if row[0].AsInt() != 0 || !row[1].IsNull() || !row[2].IsNull() || !row[3].IsNull() {
		t.Fatalf("identity row = %s, want (0, NULL, NULL, NULL)", row)
	}

	// A class outside the model's domain: the optimizer proves the query
	// empty and answers from a constant scan — the aggregate must still
	// produce its identity row without reading the table.
	constRes, err := e.Query(ctx, `SELECT count(*) FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'martian'`)
	if err != nil {
		t.Fatal(err)
	}
	if constRes.AccessPath != "constant" {
		t.Fatalf("access path = %s, want constant\n%s", constRes.AccessPath, constRes.Plan)
	}
	if len(constRes.Rows) != 1 || constRes.Rows[0][0].AsInt() != 0 {
		t.Fatalf("constant-scan aggregate = %v, want one zero-count row", constRes.Rows)
	}
}

// TestAggregateEnvelopeAttribution checks that WithAnalyze splits
// filter rejections under an aggregate exactly as it does for row
// queries: the residual predicate runs before accumulation and its
// rejections are attributed envelope-vs-residual in the report.
func TestAggregateEnvelopeAttribution(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	ctx := context.Background()
	sql := `SELECT count(*) FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'budget'`
	res, err := e.Query(ctx, sql, WithAnalyze(), WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() == nil || !res.Report().IsAggregate {
		t.Fatal("no aggregate analyze report")
	}
	var attributed bool
	for _, op := range res.Report().Ops {
		if op.HasAttribution && op.EnvRejected+op.ResidRejected > 0 {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("no envelope-vs-residual attribution under the aggregate:\n%s", res.Report().Render(false))
	}
	// The attribution run must not change the answer.
	plain, err := e.Query(ctx, sql, WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	if joinRows(res.Rows) != joinRows(plain.Rows) {
		t.Fatal("WithAnalyze changed the aggregate result")
	}
}

// The aggregate golden queries: a grouped data filter, and a GROUP BY on
// a predicted class under its envelope.
const (
	aggGroupQuery = "SELECT segment, count(*), sum(visits), avg(income) FROM customers WHERE age >= 3 GROUP BY segment"
	aggPredQuery  = `SELECT m.segment, count(*), avg(visits) FROM customers
			PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
			WHERE m.segment = 'budget' GROUP BY m.segment`
)

// TestAggregateExplainAnalyzeGolden locks the rendered EXPLAIN ANALYZE
// output of aggregate plans — the HashAgg partial/final pair, the
// partial-merge counter, and (for the mining query) rejection
// attribution — at DOP 1 and 4. Regenerate with: go test -run Golden -update .
func TestAggregateExplainAnalyzeGolden(t *testing.T) {
	e := analyzeFixture(t)
	cases := []struct {
		name string
		sql  string
	}{
		{"agg_group", aggGroupQuery},
		{"agg_pred", aggPredQuery},
	}
	for _, tc := range cases {
		for _, dop := range []int{1, 4} {
			name := fmt.Sprintf("%s_dop%d", tc.name, dop)
			t.Run(name, func(t *testing.T) {
				res, err := e.Query(context.Background(), tc.sql, WithAnalyze(), WithDOP(dop))
				if err != nil {
					t.Fatal(err)
				}
				if res.Report() == nil {
					t.Fatal("no analyze report")
				}
				got := res.Report().Render(true)
				path := filepath.Join("testdata", "analyze", name+".golden")
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got != string(want) {
					t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}

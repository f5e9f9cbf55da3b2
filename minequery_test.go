package minequery

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// seedEngine builds an engine with a customers table: 20k rows, a rare
// "vip" segment (~0.5%), numeric age/income driving the label.
func seedEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New()
	err := e.CreateTable("customers", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "age", Kind: KindInt},
		Column{Name: "income", Kind: KindInt},
		Column{Name: "visits", Kind: KindInt},
		Column{Name: "segment", Kind: KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	batch := make([]Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		age := int64(r.Intn(10))
		income := int64(r.Intn(8))
		visits := int64(r.Intn(50))
		seg := "regular"
		switch {
		// "vip" covers ~1.25% of rows: selective enough that an index
		// beats a scan, which is the regime the paper targets.
		case age == 0 && income == 7:
			seg = "vip"
		case income <= 1:
			seg = "budget"
		}
		batch = append(batch, Tuple{Int(int64(i)), Int(age), Int(income), Int(visits), Str(seg)})
	}
	if err := e.InsertBatch("customers", batch); err != nil {
		t.Fatal(err)
	}
	if err := e.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	return e
}

func trainNB(t testing.TB, e *Engine) *ModelInfo {
	t.Helper()
	info, err := e.TrainNaiveBayes("segmodel", "segment", "customers",
		[]string{"age", "income"}, "segment", BayesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

const nbQuery = `SELECT * FROM customers
	PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
	WHERE m.segment = 'vip'`

func TestQueryMatchesBaseline(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("ix_income", "customers", "income"); err != nil {
		t.Fatal(err)
	}
	optimized, err := e.Query(context.Background(), nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), nbQuery, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Rows) != len(baseline.Rows) {
		t.Fatalf("optimized %d rows, baseline %d rows\nplan:\n%s",
			len(optimized.Rows), len(baseline.Rows), optimized.Plan)
	}
	if len(baseline.Rows) == 0 {
		t.Fatal("test needs a non-empty result")
	}
	seen := map[string]int{}
	for _, r := range optimized.Rows {
		seen[r.String()]++
	}
	for _, r := range baseline.Rows {
		seen[r.String()]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("row multiset mismatch at %s (%+d)", k, v)
		}
	}
}

// TestOverBudgetKeepsDataFilter: a WHERE whose augmented normal form
// passes the disjunct budget (2^9 disjuncts against 256) still gives
// the scan its data atoms, envelope and query's own, as a filter right
// on the scan, and returns the baseline's rows.
func TestOverBudgetKeepsDataFilter(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	where := "m.segment = 'vip'"
	for k := range 9 {
		where += fmt.Sprintf(" AND (visits <> %d OR id <> %d)", k, k)
	}
	sql := "SELECT id FROM customers PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income WHERE " + where
	explain, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(explain, "\n")
	scan := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, "SeqScan(customers)") })
	if scan < 1 {
		t.Fatalf("no scan under a node:\n%s", explain)
	}
	if above := strings.TrimSpace(lines[scan-1]); !strings.HasPrefix(above, "Filter(") ||
		!strings.Contains(above, "(visits <> 8) OR (id <> 8)") || strings.Contains(above, "m.segment") {
		t.Fatalf("no data filter on the scan:\n%s", explain)
	}
	optimized, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), sql, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	got, want := make([]string, 0, len(optimized.Rows)), make([]string, 0, len(baseline.Rows))
	for _, r := range optimized.Rows {
		got = append(got, r.String())
	}
	for _, r := range baseline.Rows {
		want = append(want, r.String())
	}
	slices.Sort(got)
	slices.Sort(want)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("optimized %d rows, baseline %d rows", len(got), len(want))
	}
}

func TestOptimizedPlanUsesIndexAndIsCheaper(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("ix_income", "customers", "income"); err != nil {
		t.Fatal(err)
	}
	optimized, err := e.Query(context.Background(), nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), nbQuery, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if !optimized.PlanChanged {
		t.Fatalf("optimized plan did not change:\n%s\nnotes: %v\nest sel %f",
			optimized.Plan, optimized.RewriteNotes, optimized.EstSelectivity)
	}
	if baseline.PlanChanged {
		t.Fatalf("baseline plan should be a scan:\n%s", baseline.Plan)
	}
	if optimized.Stats.CostUnits >= baseline.Stats.CostUnits {
		t.Errorf("optimized cost %.1f should beat baseline %.1f",
			optimized.Stats.CostUnits, baseline.Stats.CostUnits)
	}
}

func TestUnknownClassYieldsConstantScan(t *testing.T) {
	e := seedEngine(t, 5000)
	trainNB(t, e)
	res, err := e.Query(context.Background(), strings.Replace(nbQuery, "'vip'", "'martian'", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessPath != "constant" {
		t.Fatalf("unknown class should plan a constant scan, got %s\n%s", res.AccessPath, res.Plan)
	}
	if len(res.Rows) != 0 {
		t.Error("constant scan must return nothing")
	}
	if res.Stats.SeqPageReads+res.Stats.RandPageReads != 0 {
		t.Error("constant scan must not touch the heap")
	}
}

func TestDecisionTreeQueryEndToEnd(t *testing.T) {
	e := seedEngine(t, 15000)
	info, err := e.TrainDecisionTree("treemodel", "segment", "customers",
		[]string{"age", "income"}, "segment", TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.ExactEnvelopes {
		t.Error("tree envelopes should be exact")
	}
	if err := e.CreateIndex("ix_income", "customers", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("ix_age", "customers", "age"); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT id FROM customers
		PREDICTION JOIN treemodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'vip'`
	optimized, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), sql, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Rows) != len(baseline.Rows) {
		t.Fatalf("result mismatch: %d vs %d", len(optimized.Rows), len(baseline.Rows))
	}
	if len(optimized.Columns) != 1 || optimized.Columns[0].Name != "id" {
		t.Errorf("projection columns = %v", optimized.Columns)
	}
}

func TestKMeansQueryEndToEnd(t *testing.T) {
	e := seedEngine(t, 10000)
	if _, err := e.TrainKMeans("clusters", "cluster", "customers",
		[]string{"age", "income"}, ClusterOptions{K: 5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT * FROM customers
		PREDICTION JOIN clusters AS c ON c.age = customers.age AND c.income = customers.income
		WHERE c.cluster = 0`
	optimized, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), sql, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Rows) != len(baseline.Rows) {
		t.Fatalf("cluster query mismatch: %d vs %d\n%s", len(optimized.Rows), len(baseline.Rows), optimized.Plan)
	}
	if len(optimized.Rows) == 0 {
		t.Error("cluster 0 should be non-empty")
	}
}

func TestINPredicate(t *testing.T) {
	e := seedEngine(t, 10000)
	trainNB(t, e)
	sql := `SELECT * FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment IN ('vip', 'budget')`
	optimized, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), sql, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Rows) != len(baseline.Rows) {
		t.Fatalf("IN mismatch: %d vs %d", len(optimized.Rows), len(baseline.Rows))
	}
}

func TestModelDataJoinQuery(t *testing.T) {
	e := seedEngine(t, 8000)
	trainNB(t, e)
	sql := `SELECT * FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = segment`
	optimized, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), sql, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Rows) != len(baseline.Rows) {
		t.Fatalf("model-data join mismatch: %d vs %d", len(optimized.Rows), len(baseline.Rows))
	}
	if len(optimized.Rows) == 0 {
		t.Error("cross-validation query should match many rows (model is accurate)")
	}
}

func TestTwoModelConcurrence(t *testing.T) {
	e := seedEngine(t, 8000)
	trainNB(t, e)
	if _, err := e.TrainDecisionTree("treemodel", "segment", "customers",
		[]string{"age", "income"}, "segment", TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT * FROM customers
		PREDICTION JOIN segmodel AS m1 ON m1.age = customers.age AND m1.income = customers.income
		PREDICTION JOIN treemodel AS m2 ON m2.age = customers.age AND m2.income = customers.income
		WHERE m1.segment = m2.segment AND m1.segment = 'vip'`
	optimized, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.Query(context.Background(), sql, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Rows) != len(baseline.Rows) {
		t.Fatalf("two-model join mismatch: %d vs %d", len(optimized.Rows), len(baseline.Rows))
	}
}

func TestLimitAndProjection(t *testing.T) {
	e := seedEngine(t, 1000)
	res, err := e.Query(context.Background(), "SELECT id, segment FROM customers WHERE income >= 0 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Columns) != 2 {
		t.Fatalf("rows %d cols %v", len(res.Rows), res.Columns)
	}
}

func TestExplain(t *testing.T) {
	e := seedEngine(t, 2000)
	trainNB(t, e)
	out, err := e.Explain(nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PredictionJoin") {
		t.Errorf("explain output missing prediction join:\n%s", out)
	}
	if !strings.Contains(out, "rewrites:") {
		t.Errorf("explain output missing rewrite notes:\n%s", out)
	}
}

func TestEnvelopeAccessor(t *testing.T) {
	e := seedEngine(t, 3000)
	trainNB(t, e)
	env, ok := e.Envelope("segmodel", Str("vip"))
	if !ok || env == nil {
		t.Fatal("envelope lookup failed")
	}
	if _, ok := e.Envelope("segmodel", Str("martian")); ok {
		t.Error("envelope for unknown class should be absent")
	}
	if _, ok := e.Envelope("nosuch", Str("x")); ok {
		t.Error("envelope for unknown model should be absent")
	}
}

func TestModelRetrainInvalidatesNothingVisible(t *testing.T) {
	e := seedEngine(t, 3000)
	info1 := trainNB(t, e)
	info2 := trainNB(t, e)
	if info2.Version != info1.Version+1 {
		t.Errorf("retrain should bump version: %d then %d", info1.Version, info2.Version)
	}
	// Queries after retraining use the fresh version.
	if _, err := e.Query(context.Background(), nbQuery); err != nil {
		t.Fatalf("query after retrain failed: %v", err)
	}
}

func TestErrors(t *testing.T) {
	e := New()
	if err := e.Insert("nope", Tuple{Int(1)}); err == nil {
		t.Error("insert into missing table should fail")
	}
	if err := e.InsertBatch("nope", []Tuple{{Int(1)}}); err == nil {
		t.Error("batch insert into missing table should fail")
	}
	if err := e.Analyze("nope"); err == nil {
		t.Error("analyze of missing table should fail")
	}
	if _, err := e.RowCount("nope"); err == nil {
		t.Error("rowcount of missing table should fail")
	}
	if _, err := e.Query(context.Background(), "SELECT * FROM nope"); err == nil {
		t.Error("query of missing table should fail")
	}
	if _, err := e.Query(context.Background(), "not sql"); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := e.Explain("SELECT * FROM nope"); err == nil {
		t.Error("explain of missing table should fail")
	}
	if _, err := e.TrainNaiveBayes("m", "c", "nope", []string{"x"}, "y", BayesOptions{}); err == nil {
		t.Error("training on missing table should fail")
	}
	e2 := seedEngine(t, 100)
	if _, err := e2.TrainNaiveBayes("m", "c", "customers", []string{"nope"}, "segment", BayesOptions{}); err == nil {
		t.Error("training on missing column should fail")
	}
	if _, err := e2.TrainNaiveBayes("m", "c", "customers", []string{"age"}, "nope", BayesOptions{}); err == nil {
		t.Error("training on missing label should fail")
	}
}

func TestRowCountAndDropIndexes(t *testing.T) {
	e := seedEngine(t, 500)
	n, err := e.RowCount("customers")
	if err != nil || n != 500 {
		t.Fatalf("RowCount = %d, %v", n, err)
	}
	if err := e.CreateIndex("ix", "customers", "age"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndexes("customers"); err != nil {
		t.Fatal(err)
	}
}

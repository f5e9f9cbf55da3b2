package core

import (
	"math/rand"
	"strings"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// rewriteFixture builds a catalog with a customers table and two naive
// Bayes models (one trained, one a contradictory variant) plus a tree
// model, all with precomputed envelopes.
type rewriteFixture struct {
	cat    *catalog.Catalog
	schema *value.Schema // base table schema
	nb     mining.Model
	tree   mining.Model
}

func newRewriteFixture(t testing.TB) *rewriteFixture {
	t.Helper()
	cat := catalog.New()
	schema := value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "age", Kind: value.KindInt},
		value.Column{Name: "income", Kind: value.KindInt},
		value.Column{Name: "segment", Kind: value.KindString},
	)
	if _, err := cat.CreateTable("customers", schema); err != nil {
		t.Fatal(err)
	}
	// Train an NB model over (age, income) discretized domains.
	r := rand.New(rand.NewSource(7))
	mschema := value.MustSchema(
		value.Column{Name: "age", Kind: value.KindInt},
		value.Column{Name: "income", Kind: value.KindInt},
	)
	ts := &mining.TrainSet{Schema: mschema}
	for i := 0; i < 2000; i++ {
		age, inc := r.Intn(5), r.Intn(4)
		label := "casual"
		if age <= 1 && inc >= 2 {
			label = "fan"
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(int64(age)), value.Int(int64(inc))})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	nb := mustTrainNB(t, "fans", "segment_pred", ts)
	der, err := UpperEnvelopes(nb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cat.RegisterModel(nb, der.Envelopes)

	tree := figure1Model2(t)
	derT, err := UpperEnvelopes(tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cat.RegisterModel(tree, derT.Envelopes)
	return &rewriteFixture{cat: cat, schema: schema, nb: nb, tree: tree}
}

func mustTrainNB(t testing.TB, name, predCol string, ts *mining.TrainSet) mining.Model {
	t.Helper()
	m, err := trainNBHelper(name, predCol, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// figure1Model2 builds a small tree over (age, income).
func figure1Model2(t testing.TB) mining.Model {
	t.Helper()
	r := rand.New(rand.NewSource(8))
	mschema := value.MustSchema(
		value.Column{Name: "age", Kind: value.KindInt},
		value.Column{Name: "income", Kind: value.KindInt},
	)
	ts := &mining.TrainSet{Schema: mschema}
	for i := 0; i < 1500; i++ {
		age, inc := r.Intn(5), r.Intn(4)
		label := "lo"
		if inc >= 2 {
			label = "hi"
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(int64(age)), value.Int(int64(inc))})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	m, err := trainTreeHelper("risk", "risk", ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (f *rewriteFixture) rewrite(t *testing.T, sql string) (*sqlparse.Query, *Rewrite) {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RewriteQuery(q, f.cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	return q, rw
}

// evalSchema is the schema after prediction joins: base columns plus the
// prediction columns.
func (f *rewriteFixture) evalSchema(q *sqlparse.Query) *value.Schema {
	cols := append([]value.Column(nil), f.schema.Columns...)
	for _, j := range q.Joins {
		me, _ := f.cat.Model(j.Model)
		cols = append(cols, value.Column{
			Name: j.Alias + "." + me.Model.PredictColumn(),
			Kind: value.KindString,
		})
	}
	return value.MustSchema(cols...)
}

// randomRow materializes a base row plus true model predictions.
func (f *rewriteFixture) randomRow(r *rand.Rand, q *sqlparse.Query) value.Tuple {
	base := value.Tuple{
		value.Int(int64(r.Intn(1000))),
		value.Int(int64(r.Intn(5))),
		value.Int(int64(r.Intn(4))),
		value.Str([]string{"a", "b"}[r.Intn(2)]),
	}
	row := base
	for _, j := range q.Joins {
		me, _ := f.cat.Model(j.Model)
		b, ok := mining.Bind(me.Model, f.schema)
		if !ok {
			panic("bind failed")
		}
		row = append(row, b.Predict(base))
	}
	return row
}

// TestRewriteEqualityPreservesSemantics: FullPred must agree with the
// original WHERE on rows whose prediction columns are the model's true
// predictions, and DataPred must be implied by FullPred.
func TestRewriteEqualityPreservesSemantics(t *testing.T) {
	f := newRewriteFixture(t)
	queries := []string{
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'fan'",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'casual' AND age > 2",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred IN ('fan', 'casual')",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred <> 'fan'",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'fan' OR income = 0",
	}
	r := rand.New(rand.NewSource(11))
	for _, sql := range queries {
		q, rw := f.rewrite(t, sql)
		es := f.evalSchema(q)
		for i := 0; i < 500; i++ {
			row := f.randomRow(r, q)
			orig := q.Where.Eval(es, row)
			full := rw.FullPred.Eval(es, row)
			if orig != full {
				t.Fatalf("%s\nrow %v: original %v, rewritten %v\nfull: %s",
					sql, row, orig, full, rw.FullPred)
			}
			if full && !rw.DataPred.Eval(es, row) {
				t.Fatalf("%s\nrow %v satisfies FullPred but not DataPred %s", sql, row, rw.DataPred)
			}
		}
	}
}

func TestRewriteAddsEnvelopeToDataPred(t *testing.T) {
	f := newRewriteFixture(t)
	_, rw := f.rewrite(t,
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'fan'")
	// The data predicate must constrain age/income (the envelope), not
	// be TRUE.
	if _, isTrue := rw.DataPred.(expr.TrueExpr); isTrue {
		t.Fatalf("DataPred should carry the envelope, got TRUE (notes: %v)", rw.Notes)
	}
	cols := expr.Columns(rw.DataPred)
	joined := strings.Join(cols, ",")
	if !strings.Contains(joined, "age") && !strings.Contains(joined, "income") {
		t.Errorf("DataPred %s references %v, want age/income", rw.DataPred, cols)
	}
}

func TestRewriteUnknownLabelGivesFalse(t *testing.T) {
	f := newRewriteFixture(t)
	_, rw := f.rewrite(t,
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'martian'")
	if _, ok := rw.FullPred.(expr.FalseExpr); !ok {
		t.Errorf("unknown label should make the predicate FALSE, got %s", rw.FullPred)
	}
}

func TestRewriteModelDataJoin(t *testing.T) {
	f := newRewriteFixture(t)
	q, rw := f.rewrite(t,
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = segment")
	es := f.evalSchema(q)
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		row := f.randomRow(r, q)
		if q.Where.Eval(es, row) != rw.FullPred.Eval(es, row) {
			t.Fatalf("model-data join semantics changed at %v\nfull: %s", row, rw.FullPred)
		}
	}
	// DataPred should enumerate segment = class disjuncts.
	s := rw.DataPred.String()
	if !strings.Contains(s, "segment") {
		t.Errorf("DataPred %s should mention the data column", s)
	}
}

func TestRewriteModelModelJoin(t *testing.T) {
	f := newRewriteFixture(t)
	// Join fans with itself under two aliases: predictions always agree,
	// so the envelope disjunction must not eliminate anything.
	sql := `SELECT * FROM customers
		PREDICTION JOIN fans AS m1 ON m1.age = customers.age AND m1.income = customers.income
		PREDICTION JOIN fans AS m2 ON m2.age = customers.age AND m2.income = customers.income
		WHERE m1.segment_pred = m2.segment_pred`
	q, rw := f.rewrite(t, sql)
	es := f.evalSchema(q)
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		row := f.randomRow(r, q)
		if q.Where.Eval(es, row) != rw.FullPred.Eval(es, row) {
			t.Fatalf("model-model join semantics changed at %v", row)
		}
		if !rw.FullPred.Eval(es, row) {
			t.Fatalf("identical models must always concur, row %v", row)
		}
	}
}

func TestRewriteTransitivityPrunesClasses(t *testing.T) {
	f := newRewriteFixture(t)
	// segment constrained to 'fan'; via pred = segment the prediction is
	// also 'fan', and simplification should prune the casual disjunct.
	sql := `SELECT * FROM customers
		PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment_pred = segment AND segment = 'fan'`
	q, rw := f.rewrite(t, sql)
	es := f.evalSchema(q)
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		row := f.randomRow(r, q)
		if q.Where.Eval(es, row) != rw.FullPred.Eval(es, row) {
			t.Fatalf("transitivity rewrite changed semantics at %v", row)
		}
	}
	if strings.Contains(rw.DataPred.String(), "casual") {
		t.Errorf("DataPred should have pruned the casual branch: %s", rw.DataPred)
	}
}

func TestRewriteNoMiningPredicateIsIdentity(t *testing.T) {
	f := newRewriteFixture(t)
	q, rw := f.rewrite(t, "SELECT * FROM customers WHERE age > 2 AND income <= 1")
	es := f.evalSchema(q)
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		row := f.randomRow(r, q)
		if q.Where.Eval(es, row) != rw.FullPred.Eval(es, row) {
			t.Fatal("pure data query must be unchanged")
		}
	}
}

func TestRewriteNegatedMiningPredicateLeftAlone(t *testing.T) {
	f := newRewriteFixture(t)
	sql := "SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE NOT (m.segment_pred = 'fan')"
	q, rw := f.rewrite(t, sql)
	es := f.evalSchema(q)
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		row := f.randomRow(r, q)
		if q.Where.Eval(es, row) != rw.FullPred.Eval(es, row) {
			t.Fatalf("negated mining predicate semantics changed at %v", row)
		}
	}
}

func TestRewriteMissingModelErrors(t *testing.T) {
	f := newRewriteFixture(t)
	q, err := sqlparse.Parse("SELECT * FROM customers PREDICTION JOIN nosuch AS m ON m.age = customers.age WHERE m.x = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RewriteQuery(q, f.cat, 0); err == nil {
		t.Error("missing model should error")
	}
}

func TestRewriteRecordsModelVersions(t *testing.T) {
	f := newRewriteFixture(t)
	_, rw := f.rewrite(t,
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'fan'")
	if rw.ModelVersions["fans"] == 0 {
		t.Error("model version not recorded")
	}
	if len(rw.Notes) == 0 {
		t.Error("rewrite notes missing")
	}
}

// mapEnvCache is a minimal EnvelopeCache for tests.
type mapEnvCache struct {
	m            map[string]CachedEnvelope
	hits, misses int
}

func newMapEnvCache() *mapEnvCache { return &mapEnvCache{m: map[string]CachedEnvelope{}} }

func (c *mapEnvCache) Get(key string) (CachedEnvelope, bool) {
	ce, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ce, ok
}

func (c *mapEnvCache) Put(key string, ce CachedEnvelope) { c.m[key] = ce }

// TestRewriteCachedMatchesUncached: memoized envelope assembly must be
// invisible — same predicates and same notes as a cold rewrite — while
// the second pass over the same query serves every class set from cache.
func TestRewriteCachedMatchesUncached(t *testing.T) {
	f := newRewriteFixture(t)
	queries := []string{
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'fan'",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred IN ('fan', 'casual')",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred <> 'fan'",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = segment",
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income PREDICTION JOIN fans AS n ON n.age = customers.age AND n.income = customers.income WHERE m.segment_pred = n.segment_pred",
	}
	for _, sql := range queries {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RewriteQuery(q, f.cat, 0)
		if err != nil {
			t.Fatal(err)
		}
		cache := newMapEnvCache()
		for pass := 0; pass < 2; pass++ {
			rw, err := RewriteQueryCached(q, f.cat, 0, cache)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rw.FullPred.String(), cold.FullPred.String(); got != want {
				t.Fatalf("%s pass %d: FullPred %s, want %s", sql, pass, got, want)
			}
			if got, want := rw.DataPred.String(), cold.DataPred.String(); got != want {
				t.Fatalf("%s pass %d: DataPred %s, want %s", sql, pass, got, want)
			}
			if got, want := strings.Join(rw.Notes, "\n"), strings.Join(cold.Notes, "\n"); got != want {
				t.Fatalf("%s pass %d: notes differ:\n%s\n-- want --\n%s", sql, pass, got, want)
			}
		}
		if cache.hits == 0 {
			t.Fatalf("%s: second rewrite never hit the cache", sql)
		}
	}
	// Fingerprint keys must keep entries for distinct models apart: the
	// tree model's 'hi' class is not the NB model's envelope.
	cache := newMapEnvCache()
	for _, sql := range []string{
		"SELECT * FROM customers PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income WHERE m.segment_pred = 'fan'",
		"SELECT * FROM customers PREDICTION JOIN risk AS r ON r.age = customers.age AND r.income = customers.income WHERE r.risk = 'hi'",
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RewriteQueryCached(q, f.cat, 0, cache); err != nil {
			t.Fatal(err)
		}
	}
	if cache.hits != 0 {
		t.Fatalf("distinct models shared a cache entry (%d hits)", cache.hits)
	}
}

// TestUnknownColumnRejected: a WHERE or SELECT reference that names
// neither a base column nor a predicted column must fail the rewrite
// instead of silently matching no rows.
func TestUnknownColumnRejected(t *testing.T) {
	fx := newRewriteFixture(t)
	for _, src := range []string{
		"SELECT id FROM customers WHERE nosuch = 1",
		"SELECT nosuch FROM customers",
		"SELECT id FROM customers PREDICTION JOIN fans AS m ON m.age = age WHERE m.nosuch = 'x'",
	} {
		q, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", src, err)
		}
		if _, err := RewriteQuery(q, fx.cat, 0); err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Errorf("%s: err = %v, want unknown column", src, err)
		}
		if _, err := BaselineRewrite(q, fx.cat, 0); err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Errorf("%s: baseline err = %v, want unknown column", src, err)
		}
	}
	// Valid references still pass.
	q, err := sqlparse.Parse("SELECT id FROM customers PREDICTION JOIN fans AS m ON m.age = age WHERE m.segment_pred = 'fan' AND customers.income = 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RewriteQuery(q, fx.cat, 0); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

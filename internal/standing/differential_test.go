package standing

// The standing-query differential sweep: seeded random subscription
// sets — mining predicates over all five model families mixed with data
// predicates under AND/OR/NOT — evaluated over random committed batches
// by the shared compiled Set and, independently, by the naiveMatcher
// oracle (fresh per-subscription per-row prediction, direct expression
// evaluation over the extended schema, no index, memo or guard). Every
// notification stream must be byte-identical to the oracle's: same
// matches, same order, same projected values. The run is a pure
// function of the seed; any divergence is a compilation or sharing bug,
// never a flake.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/interval"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/value"
)

// sweepModel is one registered model visible to the generator.
type sweepModel struct {
	name    string
	alias   string
	predCol string
	onCols  []string
	classes []value.Value
}

// sweepNumDomain is the num domain of TestDifferentialStandingSweep:
// rows, training data and predicate constants all draw num from
// [0, sweepNumDomain).
const sweepNumDomain = 100

// buildSweepCatalog registers the sweep table and one model per family,
// all trained on seeded data so the whole fixture is deterministic.
func buildSweepCatalog(t *testing.T, seed int64) (*catalog.Catalog, []sweepModel) {
	t.Helper()
	return buildSweepCatalogIn(t, seed, sweepNumDomain)
}

// buildSweepCatalogIn is buildSweepCatalog over the num domain
// [0, numDom): the models' class boundaries scale with it.
func buildSweepCatalogIn(t *testing.T, seed int64, numDom int) (*catalog.Catalog, []sweepModel) {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.CreateTable("t", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
		value.Column{Name: "num", Kind: value.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	d := drawSweepData(r, sweepShape{numDom: numDom, span: numDom, highPct: 85, catCut: "c4", lowPct: 50})
	models := make([]sweepModel, len(sweepFamilies))
	for i := range sweepFamilies {
		models[i] = registerSweepModel(t, cat, i, d)
	}
	return cat, models
}

// sweepShape fixes how drawSweepData labels its rows: num is drawn from
// [0, span), cls is "high" from highPct percent of numDom up, grp is "b"
// from category catCut up, and seg is "y" below lowPct percent of
// numDom.
type sweepShape struct {
	numDom, span    int
	highPct, lowPct int
	catCut          string
}

// sweepData is one draw of the models' shared training material over
// the data columns.
type sweepData struct {
	num, cat, both *mining.Columns
}

// drawSweepData draws 500 training rows shaped by sh.
func drawSweepData(r *rand.Rand, sh sweepShape) sweepData {
	mk := func(cols ...value.Column) *mining.Columns { return mining.NewColumns(value.MustSchema(cols...), 500) }
	add := func(cs *mining.Columns, row value.Tuple, label string) {
		if err := cs.Append(row, value.Str(label)); err != nil {
			panic(err)
		}
	}
	catCol := value.Column{Name: "cat", Kind: value.KindString}
	numCol := value.Column{Name: "num", Kind: value.KindInt}
	d := sweepData{num: mk(numCol), cat: mk(catCol), both: mk(catCol, numCol)}
	for i := 0; i < 500; i++ {
		c := fmt.Sprintf("c%d", r.Intn(8))
		n := int64(r.Intn(sh.span))
		cls, grp, seg := "low", "a", "x"
		if n >= int64(sh.numDom*sh.highPct/100) {
			cls = "high"
		}
		if c >= sh.catCut {
			grp = "b"
		}
		if n < int64(sh.numDom*sh.lowPct/100) {
			seg = "y"
		}
		add(d.num, value.Tuple{value.Int(n)}, cls)
		add(d.cat, value.Tuple{value.Str(c)}, grp)
		add(d.both, value.Tuple{value.Str(c), value.Int(n)}, seg)
	}
	return d
}

// sweepFamilies are the sweep's models, one per family: the alias and
// ON columns the generator joins each on, and how it trains.
var sweepFamilies = []struct {
	alias  string
	onCols []string
	train  func(d sweepData) (mining.Model, error)
}{
	{"m_dt", []string{"num"}, func(d sweepData) (mining.Model, error) {
		return dtree.TrainColumns("dt", "cls", d.num, dtree.Options{})
	}},
	{"m_nb", []string{"cat"}, func(d sweepData) (mining.Model, error) {
		return nbayes.TrainColumns("nb", "grp", d.cat, nbayes.Options{})
	}},
	{"m_rl", []string{"cat", "num"}, func(d sweepData) (mining.Model, error) {
		return rules.TrainColumns("rl", "seg", d.both, rules.Options{})
	}},
	{"m_km", []string{"num"}, func(d sweepData) (mining.Model, error) {
		return cluster.TrainKMeansColumns("km", "cluster", d.num, cluster.Options{K: 3, Seed: 7})
	}},
	{"m_gm", []string{"num"}, func(d sweepData) (mining.Model, error) {
		return cluster.TrainGMMColumns("gm", "component", d.num, cluster.Options{K: 2, Seed: 7})
	}},
}

// registerSweepModel trains family i on d, derives its envelopes and
// registers it, replacing any model of the same name.
func registerSweepModel(t *testing.T, cat *catalog.Catalog, i int, d sweepData) sweepModel {
	t.Helper()
	f := sweepFamilies[i]
	m, err := f.train(d)
	if err != nil {
		t.Fatalf("train %s: %v", f.alias, err)
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		t.Fatalf("derive %s: %v", f.alias, err)
	}
	cat.RegisterModel(m, der.Envelopes)
	return sweepModel{
		name: m.Name(), alias: f.alias, predCol: m.PredictColumn(),
		onCols: f.onCols, classes: m.Classes(),
	}
}

func sweepLiteral(v value.Value) string {
	switch v.Kind() {
	case value.KindInt:
		return fmt.Sprintf("%d", v.AsInt())
	case value.KindFloat:
		return fmt.Sprintf("%g", v.AsFloat())
	default:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
}

// genSweepPredicate builds a random predicate over the in-scope models'
// predicted columns and the data columns, with AND/OR composition and
// occasional NOT — the polarity the envelope gate must stay sound
// under.
func genSweepPredicate(r *rand.Rand, models []sweepModel, depth int) string {
	return genSweepPredicateIn(r, models, depth, sweepNumDomain)
}

// genSweepPredicateIn is genSweepPredicate with num constants drawn
// from [0, numDom).
func genSweepPredicateIn(r *rand.Rand, models []sweepModel, depth, numDom int) string {
	if depth > 0 && r.Intn(3) > 0 {
		op := " AND "
		if r.Intn(2) == 0 {
			op = " OR "
		}
		n := 2 + r.Intn(2)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = genSweepPredicateIn(r, models, depth-1, numDom)
		}
		body := "(" + strings.Join(parts, op) + ")"
		if r.Intn(5) == 0 {
			return "NOT " + body
		}
		return body
	}
	if len(models) > 0 && r.Intn(2) == 0 {
		m := models[r.Intn(len(models))]
		col := m.alias + "." + m.predCol
		cls := m.classes[r.Intn(len(m.classes))]
		switch r.Intn(5) {
		case 0:
			if len(m.classes) > 1 {
				other := m.classes[r.Intn(len(m.classes))]
				return fmt.Sprintf("%s IN (%s, %s)", col, sweepLiteral(cls), sweepLiteral(other))
			}
			return fmt.Sprintf("%s = %s", col, sweepLiteral(cls))
		case 1:
			return fmt.Sprintf("%s <> %s", col, sweepLiteral(cls))
		case 2:
			return fmt.Sprintf("NOT (%s = %s)", col, sweepLiteral(cls))
		default:
			return fmt.Sprintf("%s = %s", col, sweepLiteral(cls))
		}
	}
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf("cat = 'c%d'", r.Intn(8))
	case 1:
		return fmt.Sprintf("num >= %d", r.Intn(numDom))
	case 2:
		return fmt.Sprintf("num <= %d", r.Intn(numDom))
	case 3:
		lo := r.Intn(numDom - 10)
		return fmt.Sprintf("(num >= %d AND num <= %d)", lo, lo+r.Intn(15))
	default:
		return fmt.Sprintf("cat IN ('c%d', 'c%d')", r.Intn(8), r.Intn(8))
	}
}

// genSubscription builds one random standing query: 0-2 prediction
// joins, a random predicate, and a random select list (star, data
// columns, or data plus predicted columns).
func genSubscription(r *rand.Rand, all []sweepModel) string {
	return genSubscriptionIn(r, all, sweepNumDomain)
}

// genSubscriptionIn is genSubscription with num constants drawn from
// [0, numDom).
func genSubscriptionIn(r *rand.Rand, all []sweepModel, numDom int) string {
	n := r.Intn(3)
	perm := r.Perm(len(all))
	models := make([]sweepModel, 0, n)
	for _, i := range perm[:n] {
		models = append(models, all[i])
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	switch r.Intn(3) {
	case 0:
		b.WriteString("*")
	case 1:
		b.WriteString("id, num")
	default:
		if len(models) > 0 {
			fmt.Fprintf(&b, "id, %s.%s", models[0].alias, models[0].predCol)
		} else {
			b.WriteString("id, cat")
		}
	}
	b.WriteString(" FROM t")
	for _, m := range models {
		fmt.Fprintf(&b, " PREDICTION JOIN %s AS %s ON", m.name, m.alias)
		for i, c := range m.onCols {
			if i > 0 {
				b.WriteString(" AND")
			}
			fmt.Fprintf(&b, " %s.%s = t.%s", m.alias, c, c)
		}
	}
	b.WriteString(" WHERE ")
	b.WriteString(genSweepPredicateIn(r, models, 2, numDom))
	return b.String()
}

// notifKey canonicalizes one notification for exact comparison.
func notifKey(subID int64, cols []string, row value.Tuple) string {
	parts := make([]string, 0, len(row)+2)
	parts = append(parts, fmt.Sprintf("sub=%d", subID), strings.Join(cols, ","))
	for _, v := range row {
		parts = append(parts, fmt.Sprintf("%d:%s", v.Kind(), v.String()))
	}
	return strings.Join(parts, "|")
}

// TestDifferentialStandingSweep is the standing engine's differential
// run: 300 seeded iterations, each registering a random subscription
// set in both the shared Set and the naive oracle, then streaming a
// random batch through both and requiring byte-identical match
// sequences (same subscriptions, same order, same projected values).
func TestDifferentialStandingSweep(t *testing.T) {
	const seed = 20260808
	iterations := 300
	if testing.Short() {
		iterations = 60
	}
	cat, models := buildSweepCatalog(t, seed)
	r := rand.New(rand.NewSource(seed))

	var sharedCalls, naiveCalls int64
	nextID := int64(0)
	for iter := 0; iter < iterations; iter++ {
		s := NewSet(cat, Options{Queue: 1 << 14})
		naive := newNaiveMatcher(cat)
		nSubs := 1 + r.Intn(8)
		for i := 0; i < nSubs; i++ {
			sql := genSubscription(r, models)
			id, err := s.Subscribe(sql)
			if err != nil {
				t.Fatalf("iter %d: subscribe %q: %v", iter, sql, err)
			}
			if err := naive.Register(id, sql); err != nil {
				t.Fatalf("iter %d: naive register %q: %v", iter, sql, err)
			}
		}
		rows := make([]value.Tuple, 30)
		for i := range rows {
			nextID++
			rows[i] = value.Tuple{
				value.Int(nextID),
				value.Str(fmt.Sprintf("c%d", r.Intn(8))),
				value.Int(int64(r.Intn(100))),
			}
		}
		s.EvalBatch("t", rows, int64(iter))

		var want []string
		for _, row := range rows {
			for _, m := range naive.Matches("t", row) {
				want = append(want, notifKey(m.SubID, m.Columns, m.Row))
			}
		}
		var got []string
		ns := drain(t, s, 1<<14)
		for _, n := range ns {
			got = append(got, notifKey(n.SubID, n.Columns, n.Row))
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d notifications, oracle %d\nseed=%d", iter, len(got), len(want), seed)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d notification %d diverges\n got: %s\nwant: %s\nseed=%d",
					iter, i, got[i], want[i], seed)
			}
		}
		sharedCalls += s.Stats().ModelCalls
		naiveCalls += naive.ModelCalls
	}
	if sharedCalls >= naiveCalls {
		t.Fatalf("shared set made %d model calls, naive oracle %d; sharing is vacuous", sharedCalls, naiveCalls)
	}
	t.Logf("%d iterations matched the oracle exactly; model calls: shared %d vs naive %d (%.1fx fewer)",
		iterations, sharedCalls, naiveCalls, float64(naiveCalls)/float64(max64(sharedCalls, 1)))
}

// TestDifferentialStandingSweepRetrain is the sweep across retrains: one
// long-lived Set, wired to the catalog's invalidations as the engine
// wires it, sees 200 seeded batches. Between batches a random model is
// retrained on shifted data, so its envelopes and predictions change,
// and a few subscriptions come and go. Every batch's notifications must
// be byte-identical to the naive oracle's, rebuilt over the live
// subscriptions and the current models; each must carry its batch's
// epoch, and Seq must strictly increase across the whole run. It holds
// a recompile to reusing only what no retrain can change.
func TestDifferentialStandingSweepRetrain(t *testing.T) {
	const seed = 20261017
	iterations := 200
	if testing.Short() {
		iterations = 40
	}
	cat, models := buildSweepCatalog(t, seed)
	r := rand.New(rand.NewSource(seed))
	s := NewSet(cat, Options{Queue: 1 << 14})
	cat.OnInvalidate(func(catalog.InvalidationEvent) { s.Invalidate() })
	type liveSub struct {
		id  int64
		sql string
	}
	var live []liveSub
	subscribe := func(iter int) {
		sql := genSubscription(r, models)
		id, err := s.Subscribe(sql)
		if err != nil {
			t.Fatalf("iter %d: subscribe %q: %v", iter, sql, err)
		}
		live = append(live, liveSub{id, sql})
	}
	for i := 0; i < 8; i++ {
		subscribe(-1)
	}
	nextID, lastSeq, retrains := int64(0), int64(0), 0
	for iter := 0; iter < iterations; iter++ {
		if iter > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(sweepFamilies))
			d := drawSweepData(r, sweepShape{
				numDom: sweepNumDomain, span: sweepNumDomain/2 + r.Intn(sweepNumDomain/2+1),
				highPct: 30 + r.Intn(65), catCut: fmt.Sprintf("c%d", 1+r.Intn(7)), lowPct: 10 + r.Intn(80),
			})
			models[i] = registerSweepModel(t, cat, i, d)
			retrains++
		}
		for n := r.Intn(3); n > 0 && len(live) > 1; n-- {
			j := r.Intn(len(live))
			if err := s.Unsubscribe(live[j].id); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		for n := r.Intn(3); n > 0; n-- {
			subscribe(iter)
		}
		naive := newNaiveMatcher(cat)
		for _, ls := range live {
			if err := naive.Register(ls.id, ls.sql); err != nil {
				t.Fatalf("iter %d: naive register %q: %v", iter, ls.sql, err)
			}
		}

		rows := make([]value.Tuple, 30)
		for i := range rows {
			nextID++
			rows[i] = value.Tuple{
				value.Int(nextID),
				value.Str(fmt.Sprintf("c%d", r.Intn(8))),
				value.Int(int64(r.Intn(sweepNumDomain))),
			}
		}
		epoch := cat.Epoch()
		s.EvalBatch("t", rows, epoch)

		var want []string
		for _, row := range rows {
			for _, m := range naive.Matches("t", row) {
				want = append(want, notifKey(m.SubID, m.Columns, m.Row))
			}
		}
		ns := drain(t, s, 1<<14)
		got := make([]string, len(ns))
		for i, n := range ns {
			got[i] = notifKey(n.SubID, n.Columns, n.Row)
			if n.Epoch != epoch {
				t.Fatalf("iter %d notification %d: epoch %d, want the batch's %d", iter, i, n.Epoch, epoch)
			}
			if n.Seq <= lastSeq {
				t.Fatalf("iter %d notification %d: seq %d after %d", iter, i, n.Seq, lastSeq)
			}
			lastSeq = n.Seq
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d notifications, oracle %d\nseed=%d", iter, len(got), len(want), seed)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d notification %d diverges\n got: %s\nwant: %s\nseed=%d",
					iter, i, got[i], want[i], seed)
			}
		}
	}
	st := s.Stats()
	t.Logf("%d batches matched the oracle exactly across %d retrains and %d recompiles; %d matches",
		iterations, retrains, st.Recompiles, st.Matches)
}

// TestDifferentialStandingSweepLargeSet is the sweep in the regime of
// a busy write stream: sets of 300-600 subscriptions over a num domain
// wide enough that their guards put well over 256 distinct constants on
// num, and batches in which some rows carry a NULL num. Notifications
// must be byte-identical to the naive oracle's, in the same order. A
// model that reads a NULL num predicts NULL, which matches no class, so
// a guard never drops a NULL row's match: the index files the row in
// segment 0 and delivers every match the oracle finds.
func TestDifferentialStandingSweepLargeSet(t *testing.T) {
	const seed, numDom = 20261017, 5000
	iterations := 8
	if testing.Short() {
		iterations = 3
	}
	cat, models := buildSweepCatalogIn(t, seed, numDom)
	r := rand.New(rand.NewSource(seed))
	nextID := int64(0)
	for iter := 0; iter < iterations; iter++ {
		s := NewSet(cat, Options{Queue: 1 << 16})
		naive := newNaiveMatcher(cat)
		nSubs := 300 + r.Intn(301)
		for i := 0; i < nSubs; i++ {
			sql := genSubscriptionIn(r, models, numDom)
			id, err := s.Subscribe(sql)
			if err != nil {
				t.Fatalf("iter %d: subscribe %q: %v", iter, sql, err)
			}
			if err := naive.Register(id, sql); err != nil {
				t.Fatalf("iter %d: naive register %q: %v", iter, sql, err)
			}
		}
		rows := make([]value.Tuple, 120)
		for i := range rows {
			nextID++
			num := value.Int(int64(r.Intn(numDom)))
			if r.Intn(8) == 0 {
				num = value.Null()
			}
			rows[i] = value.Tuple{value.Int(nextID), value.Str(fmt.Sprintf("c%d", r.Intn(8))), num}
		}
		s.EvalBatch("t", rows, int64(iter))
		ct := s.snapshot("t")
		ord := ct.schema.Ordinal("num")
		var numCuts []value.Value
		for _, p := range []*part{ct.free, ct.joined} {
			for _, c := range p.index.cols {
				if c.ord == ord {
					numCuts = append(numCuts, c.cuts...)
				}
			}
		}
		busiest := len(interval.NewCuts(numCuts))
		if busiest <= 256 {
			t.Fatalf("iter %d: num carries %d distinct cuts across the parts, want more than 256", iter, busiest)
		}

		var want []string
		for _, row := range rows {
			for _, m := range naive.Matches("t", row) {
				want = append(want, notifKey(m.SubID, m.Columns, m.Row))
			}
		}
		ns := drain(t, s, 1<<16)
		got := make([]string, len(ns))
		for i, n := range ns {
			got[i] = notifKey(n.SubID, n.Columns, n.Row)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d notifications, oracle %d\nseed=%d", iter, len(got), len(want), seed)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d notification %d diverges\n got: %s\nwant: %s\nseed=%d",
					iter, i, got[i], want[i], seed)
			}
		}
		st := s.Stats()
		t.Logf("iter %d: %d subscriptions, %d cuts on num, %d matches, %.1f evals per row",
			iter, nSubs, busiest, st.Matches, float64(st.Evals)/float64(len(rows)))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

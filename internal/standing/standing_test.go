package standing

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// newTestCatalog builds a catalog with one table,
// events(id INT, num INT, cat TEXT), and no models.
func newTestCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.CreateTable("events", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	return cat
}

// trainThreshold registers a decision tree named name predicting "cls"
// from num: "high" at or above thr, "low" below. The training data is
// perfectly separable, so the tree reproduces the threshold exactly and
// its envelopes are exact.
func trainThreshold(t *testing.T, cat *catalog.Catalog, name string, thr int64) *catalog.ModelEntry {
	t.Helper()
	ts := &mining.TrainSet{Schema: value.MustSchema(value.Column{Name: "num", Kind: value.KindInt})}
	for i := int64(0); i < 100; i++ {
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(i)})
		label := "low"
		if i >= thr {
			label = "high"
		}
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	m, err := dtree.Train(name, "cls", ts, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cat.RegisterModel(m, der.Envelopes)
}

// eventRow builds one events tuple.
func eventRow(id, num int64, cat string) value.Tuple {
	return value.Tuple{value.Int(id), value.Int(num), value.Str(cat)}
}

// compiledSubs returns a compiled table's subscriptions from both
// parts, in registration order.
func compiledSubs(ct *compiledTable) []*compiledSub {
	out := append(slices.Clone(ct.free.subs), ct.joined.subs...)
	slices.SortFunc(out, func(a, b *compiledSub) int { return a.bit - b.bit })
	return out
}

// drain empties the queue without blocking.
func drain(t *testing.T, s *Set, max int) []Notification {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out, err := s.Poll(ctx, max)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("poll: %v", err)
	}
	return out
}

func TestSubscribeValidation(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})

	cases := []struct {
		sql  string
		want error
	}{
		{"SELECT * FROM nosuch WHERE num = 1", qerr.ErrUnknownTable},
		{"SELECT * FROM events PREDICTION JOIN nosuch AS m ON m.num = events.num WHERE m.cls = 'high'", qerr.ErrUnknownModel},
		{"SELECT * FROM events WHERE bogus = 1", qerr.ErrUnsupportedQuery},
		{"SELECT bogus FROM events WHERE num = 1", qerr.ErrUnsupportedQuery},
		{"SELECT COUNT(*) FROM events GROUP BY cat", qerr.ErrUnsupportedQuery},
		{"SELECT * FROM events WHERE num = 1 LIMIT 5", qerr.ErrUnsupportedQuery},
	}
	for _, c := range cases {
		if _, err := s.Subscribe(c.sql); !errors.Is(err, c.want) {
			t.Errorf("Subscribe(%q) = %v, want %v", c.sql, err, c.want)
		}
	}
	if s.Registered() != 0 {
		t.Fatalf("failed subscriptions were registered: %d", s.Registered())
	}
	if err := s.Unsubscribe(99); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("Unsubscribe(99) = %v, want ErrUnknownSubscription", err)
	}
}

// TestSubscribeBindsEveryJoin: a join is bound at Subscribe even when
// neither WHERE nor SELECT reads its prediction, as a query's Predict
// operators bind it, so a model whose inputs the table lacks is refused
// there.
func TestSubscribeBindsEveryJoin(t *testing.T) {
	cat := newTestCatalog(t)
	ts := &mining.TrainSet{Schema: value.MustSchema(value.Column{Name: "elsewhere", Kind: value.KindInt})}
	for i := int64(0); i < 10; i++ {
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(i)})
		ts.Labels = append(ts.Labels, value.Str([]string{"low", "high"}[i%2]))
	}
	m, err := dtree.Train("foreign", "cls", ts, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat.RegisterModel(m, nil)
	s := NewSet(cat, Options{})
	sql := "SELECT id FROM events PREDICTION JOIN foreign AS f ON f.elsewhere = events.num WHERE num >= 0"
	if _, err := s.Subscribe(sql); !errors.Is(err, qerr.ErrUnsupportedQuery) {
		t.Fatalf("Subscribe(%q) = %v, want ErrUnsupportedQuery", sql, err)
	}
}

func TestDataOnlyMatching(t *testing.T) {
	cat := newTestCatalog(t)
	s := NewSet(cat, Options{})
	id, err := s.Subscribe("SELECT * FROM events WHERE num >= 90")
	if err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{
		eventRow(1, 95, "a"),
		eventRow(2, 10, "b"),
		eventRow(3, 90, "c"),
	}, 7)
	ns := drain(t, s, 10)
	if len(ns) != 2 {
		t.Fatalf("got %d notifications, want 2", len(ns))
	}
	n := ns[0]
	if n.SubID != id || n.Table != "events" || n.Epoch != 7 {
		t.Fatalf("bad notification header: %+v", n)
	}
	if want := []string{"id", "num", "cat"}; strings.Join(n.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", n.Columns, want)
	}
	if n.Row[0].AsInt() != 1 || n.Row[1].AsInt() != 95 {
		t.Fatalf("row = %v", n.Row)
	}
	if ns[1].Seq <= ns[0].Seq {
		t.Fatalf("sequence not increasing: %d then %d", ns[0].Seq, ns[1].Seq)
	}
}

func TestMiningMatchingAndPolarity(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})

	join := " PREDICTION JOIN dt AS m ON m.num = events.num "
	idEq, err := s.Subscribe("SELECT * FROM events" + join + "WHERE m.cls = 'high'")
	if err != nil {
		t.Fatal(err)
	}
	idNot, err := s.Subscribe("SELECT * FROM events" + join + "WHERE NOT (m.cls = 'high')")
	if err != nil {
		t.Fatal(err)
	}
	idNe, err := s.Subscribe("SELECT * FROM events" + join + "WHERE m.cls <> 'high'")
	if err != nil {
		t.Fatal(err)
	}
	idIn, err := s.Subscribe("SELECT * FROM events" + join + "WHERE m.cls IN ('high', 'low')")
	if err != nil {
		t.Fatal(err)
	}

	s.EvalBatch("events", []value.Tuple{
		eventRow(1, 80, "a"), // high
		eventRow(2, 20, "b"), // low
	}, 1)
	got := map[int64][]int64{} // sub -> matched ids
	for _, n := range drain(t, s, 100) {
		got[n.SubID] = append(got[n.SubID], n.Row[0].AsInt())
	}
	wantIDs := map[int64][]int64{
		idEq:  {1},
		idNot: {2},
		idNe:  {2},
		idIn:  {1, 2},
	}
	for sub, want := range wantIDs {
		if fmt.Sprint(got[sub]) != fmt.Sprint(want) {
			t.Errorf("sub %d matched %v, want %v", sub, got[sub], want)
		}
	}
}

func TestProjectionWithPrediction(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	if _, err := s.Subscribe(
		"SELECT id, m.cls FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE num >= 70"); err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{eventRow(9, 75, "z")}, 1)
	ns := drain(t, s, 10)
	if len(ns) != 1 {
		t.Fatalf("got %d notifications, want 1", len(ns))
	}
	if strings.Join(ns[0].Columns, ",") != "id,m.cls" {
		t.Fatalf("columns = %v", ns[0].Columns)
	}
	if ns[0].Row[0].AsInt() != 9 || ns[0].Row[1].AsString() != "high" {
		t.Fatalf("row = %v", ns[0].Row)
	}
}

func TestQueueDropCounting(t *testing.T) {
	cat := newTestCatalog(t)
	s := NewSet(cat, Options{Queue: 2})
	id, err := s.Subscribe("SELECT * FROM events WHERE num >= 0")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Tuple, 5)
	for i := range rows {
		rows[i] = eventRow(int64(i), int64(i), "x")
	}
	s.EvalBatch("events", rows, 1)
	st := s.Stats()
	if st.Matches != 5 {
		t.Fatalf("matches = %d, want 5", st.Matches)
	}
	if st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
	subs := s.Subscriptions()
	if len(subs) != 1 || subs[0].ID != id || subs[0].Matches != 5 || subs[0].Dropped != 3 {
		t.Fatalf("subscription info = %+v", subs)
	}
	// The two delivered notifications are the two oldest matches.
	ns := drain(t, s, 10)
	if len(ns) != 2 || ns[0].Row[0].AsInt() != 0 || ns[1].Row[0].AsInt() != 1 {
		t.Fatalf("delivered = %v", ns)
	}
}

func TestRecompileOnInvalidate(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	if _, err := s.Subscribe(
		"SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high'"); err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{eventRow(1, 80, "a")}, 1)
	if got := s.Recompiles(); got != 1 {
		t.Fatalf("recompiles after first batch = %d, want 1", got)
	}
	// A clean second batch reuses the compiled set.
	s.EvalBatch("events", []value.Tuple{eventRow(2, 81, "a")}, 1)
	if got := s.Recompiles(); got != 1 {
		t.Fatalf("recompiles after second batch = %d, want 1", got)
	}
	// Retrain to an inverted threshold: after invalidation the new model
	// must drive matching.
	trainThreshold(t, cat, "dt", 90)
	s.Invalidate()
	s.EvalBatch("events", []value.Tuple{eventRow(3, 80, "a")}, 2) // now "low"
	if got := s.Recompiles(); got != 2 {
		t.Fatalf("recompiles after invalidate = %d, want 2", got)
	}
	ids := []int64{}
	for _, n := range drain(t, s, 100) {
		ids = append(ids, n.Row[0].AsInt())
	}
	if fmt.Sprint(ids) != "[1 2]" {
		t.Fatalf("matched ids = %v, want [1 2] (id 3 is 'low' under the retrained model)", ids)
	}
}

// TestRecompileReusesModelFreeSubscriptions: across a retrain, a
// subscription without prediction joins keeps its compiled form, so its
// notifications point at the same Source as before, while a joined
// subscription compiles again and carries the new model's predictions
// under a new Source. The model-free part is the same object before and
// after, and the recompile changes nothing the old snapshot holds.
func TestRecompileReusesModelFreeSubscriptions(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	idData, err := s.Subscribe("SELECT id, num FROM events WHERE num >= 0")
	if err != nil {
		t.Fatal(err)
	}
	idJoin, err := s.Subscribe("SELECT id, m.cls FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE num >= 0")
	if err != nil {
		t.Fatal(err)
	}
	bySub := func(epoch int64) map[int64]Notification {
		t.Helper()
		out := map[int64]Notification{}
		for _, n := range drain(t, s, 10) {
			if n.Epoch != epoch {
				t.Fatalf("subscription %d: epoch %d, want %d", n.SubID, n.Epoch, epoch)
			}
			out[n.SubID] = n
		}
		if len(out) != 2 {
			t.Fatalf("epoch %d: notifications for %d subscriptions, want 2", epoch, len(out))
		}
		return out
	}
	s.EvalBatch("events", []value.Tuple{eventRow(1, 70, "a")}, 1)
	before, ct := bySub(1), s.snapshot("events")
	subs := compiledSubs(ct)
	kept := make([]compiledSub, len(subs))
	for i, cs := range subs {
		kept[i] = *cs
	}

	trainThreshold(t, cat, "dt", 90)
	s.Invalidate()
	s.EvalBatch("events", []value.Tuple{eventRow(2, 70, "a")}, 2)
	after := bySub(2)
	if s.Recompiles() != 2 {
		t.Fatalf("recompiles = %d, want 2", s.Recompiles())
	}
	if after[idData].Source != before[idData].Source {
		t.Error("the data-only subscription compiled again across a retrain")
	}
	if after[idJoin].Source == before[idJoin].Source {
		t.Error("the joined subscription kept its Source across a retrain")
	}
	if got, want := before[idJoin].Row[1].AsString()+"/"+after[idJoin].Row[1].AsString(), "high/low"; got != want {
		t.Errorf("joined predictions %s across the retrain, want %s", got, want)
	}
	if s.snapshot("events").free != ct.free {
		t.Error("the retrain rebuilt the model-free part")
	}
	for i, cs := range subs {
		if !reflect.DeepEqual(*cs, kept[i]) {
			t.Errorf("the recompile changed the old snapshot's compiled subscription %d: %+v, was %+v", i, *cs, kept[i])
		}
	}
}

// TestRecompileKeepsModelFreePart: the model-free part is one object
// across any number of catalog invalidations, and a new one after a
// Subscribe and after an Unsubscribe; every recompile still delivers
// each subscription's match, in registration order.
func TestRecompileKeepsModelFreePart(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	var ids []int64
	subscribe := func(sql string) {
		t.Helper()
		id, err := s.Subscribe(sql)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	subscribe("SELECT id FROM events WHERE num >= 10")
	subscribe("SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high'")
	subscribe("SELECT id, cat FROM events WHERE cat = 'a'")
	matched := func(want []int64) {
		t.Helper()
		s.EvalBatch("events", []value.Tuple{eventRow(1, 70, "a")}, 1)
		var got []int64
		for _, n := range drain(t, s, 10) {
			got = append(got, n.SubID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("matched subscriptions %v, want %v", got, want)
		}
	}
	matched(ids)
	free := s.snapshot("events").free
	for k := 0; k < 5; k++ {
		s.Invalidate()
		matched(ids)
		if ct := s.snapshot("events"); ct.free != free {
			t.Fatalf("invalidation %d rebuilt the model-free part", k+1)
		}
	}
	if got := s.Recompiles(); got != 6 {
		t.Fatalf("recompiles = %d, want 6", got)
	}
	subscribe("SELECT id FROM events WHERE id = 1")
	matched(ids)
	after := s.snapshot("events").free
	if after == free || len(after.subs) != 3 {
		t.Fatalf("after a Subscribe the model-free part is the old one (%t) or holds %d subscriptions, want a new one of 3",
			after == free, len(after.subs))
	}
	if err := s.Unsubscribe(ids[0]); err != nil {
		t.Fatal(err)
	}
	ids = ids[1:]
	matched(ids)
	if last := s.snapshot("events").free; last == after || len(last.subs) != 2 {
		t.Fatalf("after an Unsubscribe the model-free part is the old one (%t) or holds %d subscriptions, want a new one of 2",
			last == after, len(last.subs))
	}
}

// TestRecompileRacesEvalAndSubscribe runs EvalBatch on two goroutines,
// Invalidate and Subscribe at once, so a recompile in one EvalBatch
// overlaps the other's evaluation: under the race detector, a recompile
// that changed anything a published snapshot shares shows as a race.
// Every row still matches the model-free subscription registered first.
func TestRecompileRacesEvalAndSubscribe(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{Queue: 16})
	always, err := s.Subscribe("SELECT id FROM events WHERE num >= 0")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, evaluators = 200, 2
	done := make(chan struct{})
	var writers, evals sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Invalidate()
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			sql := fmt.Sprintf("SELECT id FROM events WHERE num >= %d", i)
			if i%2 == 1 {
				sql = fmt.Sprintf("SELECT id, m.cls FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE num <= %d", i)
			}
			if i%8 != 7 {
				if _, err := s.Subscribe(sql); err != nil {
					t.Error(err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	evals.Add(evaluators)
	for g := 0; g < evaluators; g++ {
		go func() {
			defer evals.Done()
			for i := 0; i < rounds; i++ {
				s.EvalBatch("events", []value.Tuple{eventRow(int64(i), int64(i%100), "a")}, 1)
				runtime.Gosched()
			}
		}()
	}
	evals.Wait()
	close(done)
	writers.Wait()
	for _, info := range s.Subscriptions() {
		if info.ID == always && info.Matches != rounds*evaluators {
			t.Fatalf("the first subscription matched %d of %d rows", info.Matches, rounds*evaluators)
		}
	}
}

func TestBrokenSubscriptionDisabledNotFatal(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	idModel, err := s.Subscribe(
		"SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high'")
	if err != nil {
		t.Fatal(err)
	}
	idData, err := s.Subscribe("SELECT * FROM events WHERE num >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.DropModel("dt"); err != nil {
		t.Fatal(err)
	}
	s.Invalidate()
	s.EvalBatch("events", []value.Tuple{eventRow(1, 80, "a")}, 1)
	ns := drain(t, s, 10)
	if len(ns) != 1 || ns[0].SubID != idData {
		t.Fatalf("notifications = %+v, want one match for the data-only subscription", ns)
	}
	for _, info := range s.Subscriptions() {
		if info.ID == idModel && info.Err == "" {
			t.Fatalf("broken subscription carries no error: %+v", info)
		}
		if info.ID == idData && info.Err != "" {
			t.Fatalf("healthy subscription carries an error: %+v", info)
		}
	}
}

func TestIntervalIndexPrunes(t *testing.T) {
	cat := newTestCatalog(t)
	s := NewSet(cat, Options{})
	// 100 subscriptions over disjoint 5-wide num ranges.
	for i := 0; i < 100; i++ {
		lo := i * 10
		sql := fmt.Sprintf("SELECT * FROM events WHERE num >= %d AND num <= %d", lo, lo+4)
		if _, err := s.Subscribe(sql); err != nil {
			t.Fatal(err)
		}
	}
	s.EvalBatch("events", []value.Tuple{eventRow(1, 42, "a")}, 1)
	st := s.Stats()
	// Only the subscription covering [40,44] can survive the stab; allow
	// a little slack for boundary segments, but pruning must eliminate
	// nearly all 100 candidates.
	if st.Evals > 5 {
		t.Fatalf("evals = %d; interval index pruned almost nothing", st.Evals)
	}
	if st.Matches != 1 {
		t.Fatalf("matches = %d, want 1", st.Matches)
	}
}

func TestModelCallSharingAndEnvelopeGating(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	// Twenty subscriptions over the same mining predicate shape. The OR
	// keeps the interval index from pruning on id, so a row with a low id
	// reaches every subscription's guard.
	for i := 0; i < 20; i++ {
		sql := fmt.Sprintf(
			"SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high' AND (id >= %d OR cat = 'none')", -i)
		if _, err := s.Subscribe(sql); err != nil {
			t.Fatal(err)
		}
	}
	// A clearly-low row: the shared 'high' envelope rejects it once, and
	// no model is ever invoked.
	s.EvalBatch("events", []value.Tuple{eventRow(1, 5, "a")}, 1)
	if st := s.Stats(); st.ModelCalls != 0 {
		t.Fatalf("model calls on an envelope-rejected row = %d, want 0", st.ModelCalls)
	}
	// A high row: all twenty subscriptions match off ONE model call.
	s.EvalBatch("events", []value.Tuple{eventRow(2, 95, "a")}, 1)
	st := s.Stats()
	if st.ModelCalls != 1 {
		t.Fatalf("model calls = %d, want 1 (memoized across 20 subscriptions)", st.ModelCalls)
	}
	if st.Matches != 20 {
		t.Fatalf("matches = %d, want 20", st.Matches)
	}
	// A high row that every subscription's id conjunct rejects: the 'high'
	// envelope admits it, but the whole guard gates the model, not only
	// the atom's region, so it costs no call.
	s.EvalBatch("events", []value.Tuple{eventRow(-100, 95, "a")}, 1)
	after := s.Stats()
	if calls, matches := after.ModelCalls-st.ModelCalls, after.Matches-st.Matches; calls != 0 || matches != 0 {
		t.Fatalf("guard-rejected row: %d model calls and %d matches, want 0 and 0", calls, matches)
	}
}

// TestGuardKeepsDataNot: a NOT over data columns stays in the guard, so
// a row it rejects costs no model call, while the rows that match are
// the WHERE's. The 'low' region alone admits every row below 50.
func TestGuardKeepsDataNot(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	id, err := s.Subscribe("SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE NOT (num < 5) AND m.cls = 'low'")
	if err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{eventRow(1, 3, "a")}, 1)
	if st := s.Stats(); st.ModelCalls != 0 || st.Matches != 0 {
		t.Fatalf("row with num < 5: %d model calls and %d matches, want 0 and 0", st.ModelCalls, st.Matches)
	}
	s.EvalBatch("events", []value.Tuple{eventRow(2, 20, "a"), eventRow(3, 4, "a"), eventRow(4, 70, "a")}, 1)
	if st := s.Stats(); st.ModelCalls != 1 {
		t.Fatalf("model calls = %d, want 1 (num 20 only)", st.ModelCalls)
	}
	var got []int64
	for _, n := range drain(t, s, 100) {
		if n.SubID != id {
			t.Fatalf("notification for subscription %d, want %d", n.SubID, id)
		}
		got = append(got, n.Row[0].AsInt())
	}
	if !slices.Equal(got, []int64{2}) {
		t.Fatalf("matched rows %v, want [2]", got)
	}
}

// countingCache is an envelope cache that counts its hits and misses.
type countingCache struct {
	m            map[string]core.CachedEnvelope
	hits, misses int
}

func (c *countingCache) Get(key string) (core.CachedEnvelope, bool) {
	ce, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ce, ok
}

func (c *countingCache) Put(key string, ce core.CachedEnvelope) { c.m[key] = ce }

// TestGuardAndQueryShareCacheEntry: a subscription's region and a
// query's envelope over the same class are one cache entry, whichever
// fills it: the subscription misses, the query then hits, and its notes
// read as an uncached rewrite's.
func TestGuardAndQueryShareCacheEntry(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	cache := &countingCache{m: map[string]core.CachedEnvelope{}}
	s := NewSet(cat, Options{})
	s.SetCache(cache)
	const sql = "SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high'"
	if _, err := s.Subscribe(sql); err != nil {
		t.Fatal(err)
	}
	if cache.misses != 1 || cache.hits != 0 {
		t.Fatalf("after Subscribe: %d misses and %d hits, want 1 and 0", cache.misses, cache.hits)
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := core.RewriteQueryCached(q, cat, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != 1 || cache.hits != 1 {
		t.Fatalf("after the query: %d misses and %d hits, want 1 and 1", cache.misses, cache.hits)
	}
	cold, err := core.RewriteQuery(q, cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cached.Notes, cold.Notes) || len(cold.Notes) == 0 {
		t.Fatalf("notes through the shared entry %q, uncached %q", cached.Notes, cold.Notes)
	}
}

// TestRegionInternedAcrossAliases: a region is keyed by what it
// selects (shape, model fingerprint, class set), never by how a
// subscription spells its prediction column, so the same mining atom
// under different aliases and different case is still ONE region —
// derived once per recompile however many subscriptions carry it.
func TestRegionInternedAcrossAliases(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	s := NewSet(cat, Options{})
	for _, sql := range []string{
		"SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high'",
		"SELECT * FROM events PREDICTION JOIN DT AS zz ON zz.num = events.num WHERE ZZ.CLS = 'high' AND id >= 0",
		"SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = cat",
		"SELECT * FROM events PREDICTION JOIN dt AS q ON q.num = events.num WHERE CAT = q.cls",
		"SELECT * FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls <> 'low'",
	} {
		if _, err := s.Subscribe(sql); err != nil {
			t.Fatal(err)
		}
	}
	ct := s.snapshot("events")
	if n := len(compiledSubs(ct)); n != 5 || len(ct.models) != 1 {
		t.Fatalf("compiled %d subscriptions over %d models, want 5 over 1", n, len(ct.models))
	}
	// eq{high}, md:cat and ne:low — the last selects the same rows as
	// the first but is a different shape, so a different key.
	if len(ct.regions) != 3 {
		t.Fatalf("interned %d regions, want 3: %v", len(ct.regions), ct.regions)
	}
}

func TestModelDataAndModelModelJoins(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	trainThreshold(t, cat, "dt2", 50) // same boundary -> predictions agree
	trainThreshold(t, cat, "dt3", 90) // different boundary
	s := NewSet(cat, Options{})
	joins := " PREDICTION JOIN dt AS a ON a.num = events.num" +
		" PREDICTION JOIN dt3 AS b ON b.num = events.num "
	idMD, err := s.Subscribe("SELECT * FROM events PREDICTION JOIN dt AS a ON a.num = events.num WHERE a.cls = cat")
	if err != nil {
		t.Fatal(err)
	}
	idMM, err := s.Subscribe("SELECT * FROM events" + joins + "WHERE a.cls = b.cls")
	if err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{
		eventRow(1, 80, "high"), // a=high matches cat; b=low so a<>b
		eventRow(2, 95, "x"),    // a=high, b=high -> mm matches; md does not
		eventRow(3, 20, "low"),  // a=low matches cat; b=low -> both match
	}, 1)
	got := map[int64][]int64{}
	for _, n := range drain(t, s, 100) {
		got[n.SubID] = append(got[n.SubID], n.Row[0].AsInt())
	}
	if fmt.Sprint(got[idMD]) != "[1 3]" {
		t.Fatalf("model-data join matched %v, want [1 3]", got[idMD])
	}
	if fmt.Sprint(got[idMM]) != "[2 3]" {
		t.Fatalf("model-model join matched %v, want [2 3]", got[idMM])
	}
}

func TestPollContext(t *testing.T) {
	cat := newTestCatalog(t)
	s := NewSet(cat, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Poll(ctx, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Poll on empty queue = %v, want deadline exceeded", err)
	}
}

func TestUnsubscribeStopsMatching(t *testing.T) {
	cat := newTestCatalog(t)
	s := NewSet(cat, Options{})
	id, err := s.Subscribe("SELECT * FROM events WHERE num >= 0")
	if err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{eventRow(1, 1, "a")}, 1)
	if err := s.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	s.EvalBatch("events", []value.Tuple{eventRow(2, 2, "a")}, 1)
	ns := drain(t, s, 10)
	if len(ns) != 1 || ns[0].Row[0].AsInt() != 1 {
		t.Fatalf("notifications after unsubscribe = %+v", ns)
	}
	if s.Registered() != 0 {
		t.Fatalf("registered = %d", s.Registered())
	}
}

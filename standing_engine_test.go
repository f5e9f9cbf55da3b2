package minequery

// Engine-level standing-query tests: the subscribe → committed write →
// notification round trip through the public Engine surface, replay
// isolation (WAL recovery must not re-notify), and the frozen standing
// metrics series. Random subscription sets against the reference, across
// retrains and restarts, are TestModelCheck's.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// standingEngine seeds table t(id, cat, num) with rows random rows and
// trains decision tree dt, which predicts cls = 'high' exactly for
// num >= 85, from a label table staged beside it.
func standingEngine(t *testing.T, seed int64, rows int) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt}, Column{Name: "cat", Kind: KindString}, Column{Name: "num", Kind: KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateTable("t_lbl", MustSchema(Column{Name: "num", Kind: KindInt}, Column{Name: "cls", Kind: KindString})); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		num := int64(r.Intn(100))
		cls := "low"
		if num >= 85 {
			cls = "high"
		}
		if err := eng.Insert("t", Tuple{Int(int64(i)), Str(fmt.Sprintf("c%d", r.Intn(8))), Int(num)}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Insert("t_lbl", Tuple{Int(num), Str(cls)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.TrainDecisionTree("dt", "cls", "t_lbl", []string{"num"}, "cls", TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// drainNotifications empties the engine's delivery queue, polling until
// a short deadline lapses with nothing left. Standing evaluation is
// synchronous with the committing Exec, so once the writers have
// returned the queue is fully populated and the final empty poll only
// costs the short deadline.
func drainNotifications(t *testing.T, eng *Engine) []Notification {
	t.Helper()
	var out []Notification
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		ns, err := eng.Notifications(ctx, 10000)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return out
			}
			t.Fatalf("drain notifications: %v", err)
		}
		out = append(out, ns...)
	}
}

// TestStandingRoundTrip drives the full public path: subscribe, write
// through Exec, receive the matches — including a mining subscription
// whose projection carries the predicted column.
func TestStandingRoundTrip(t *testing.T) {
	eng := standingEngine(t, 4242, 200)
	ctx := context.Background()

	dataID, err := eng.Subscribe("SELECT id, num FROM t WHERE num >= 90")
	if err != nil {
		t.Fatal(err)
	}
	mineID, err := eng.Subscribe(
		"SELECT id, m.cls FROM t PREDICTION JOIN dt AS m ON m.num = t.num WHERE m.cls = 'high'")
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.StandingStats().Registered; got != 2 {
		t.Fatalf("registered = %d, want 2", got)
	}

	// One row above both thresholds, one below: num >= 85 predicts
	// "high" in the standingEngine fixture.
	res, err := eng.Exec(ctx, "INSERT INTO t (id, cat, num) VALUES (9001, 'c1', 97), (9002, 'c2', 10)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("rows affected = %d, want 2", res.RowsAffected)
	}
	ns := drainNotifications(t, eng)
	if len(ns) != 2 {
		t.Fatalf("got %d notifications, want 2: %+v", len(ns), ns)
	}
	bySub := map[int64]Notification{}
	for _, n := range ns {
		bySub[n.SubID] = n
		if n.Table != "t" {
			t.Fatalf("notification table = %q, want t", n.Table)
		}
	}
	d := bySub[dataID]
	if len(d.Row) != 2 || d.Row[0].AsInt() != 9001 || d.Row[1].AsInt() != 97 {
		t.Fatalf("data notification row = %v", d.Row)
	}
	m := bySub[mineID]
	if len(m.Row) != 2 || m.Row[0].AsInt() != 9001 || m.Row[1].AsString() != "high" {
		t.Fatalf("mining notification row = %v", m.Row)
	}

	// Unsubscribed queries stop matching; unknown ids are typed errors.
	if err := eng.Unsubscribe(mineID); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unsubscribe(mineID); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("double unsubscribe: got %v, want ErrUnknownSubscription", err)
	}
	if _, err := eng.Exec(ctx, "INSERT INTO t (id, cat, num) VALUES (9003, 'c3', 99)"); err != nil {
		t.Fatal(err)
	}
	ns = drainNotifications(t, eng)
	if len(ns) != 1 || ns[0].SubID != dataID {
		t.Fatalf("after unsubscribe: got %+v, want one match for sub %d", ns, dataID)
	}
}

// TestStandingReplayDoesNotNotify pins the replay/live split: WAL
// recovery re-applies committed rows but must not re-deliver them to
// standing queries — notifications are a live-write phenomenon, and
// replaying a log into a warm subscriber set would duplicate every
// match ever made.
func TestStandingReplayDoesNotNotify(t *testing.T) {
	ctx := context.Background()
	eng := newCrashEngine(t)
	dev := NewMemWALDevice()
	if _, err := eng.EnableWAL(dev); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe("SELECT id FROM t WHERE a >= 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx, "INSERT INTO t (id, a, b, label) VALUES (1, 1, 1, 'red'), (2, 2, 2, 'blue')"); err != nil {
		t.Fatal(err)
	}
	if ns := drainNotifications(t, eng); len(ns) != 2 {
		t.Fatalf("live engine delivered %d notifications, want 2", len(ns))
	}

	// Recover the log into a fresh engine that already has a (matching)
	// subscription registered: replay must stay silent.
	rec := newCrashEngine(t)
	if _, err := rec.Subscribe("SELECT id FROM t WHERE a >= 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.EnableWAL(NewMemWALDeviceFrom(dev.CrashImage(0))); err != nil {
		t.Fatal(err)
	}
	n, err := rec.RowCount("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replay recovered %d rows, want 2", n)
	}
	st := rec.StandingStats()
	if st.Evals != 0 || st.Matches != 0 {
		t.Fatalf("replay evaluated standing queries: %+v", st)
	}
	if ns := drainNotifications(t, rec); len(ns) != 0 {
		t.Fatalf("replay delivered %d notifications, want 0", len(ns))
	}
}

// TestStandingMetricsSeries pins the frozen standing metric names and
// checks they move with real activity.
func TestStandingMetricsSeries(t *testing.T) {
	eng := standingEngine(t, 77, 100)
	reg := NewMetricsRegistry()
	eng.RegisterMetrics(reg)
	if _, err := eng.Subscribe("SELECT id FROM t WHERE num >= 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(context.Background(), "INSERT INTO t (id, cat, num) VALUES (5001, 'c0', 50)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	for _, want := range []string{
		"minequery_standing_registered 1",
		"minequery_standing_matches_total 1",
		"minequery_standing_evals_total 1",
		"minequery_standing_dropped_total 0",
		"minequery_standing_recompiles_total",
		"minequery_retrain_failures_total 0",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape is missing %q:\n%s", want, scrape)
		}
	}
}

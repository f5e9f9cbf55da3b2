package standing

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"minequery/internal/core"
	"minequery/internal/mining"
	"minequery/internal/mining/nbayes"
	"minequery/internal/value"
)

// raceEnabled is set by race_test.go: the race detector allocates on the
// program's behalf, so allocation counts skip under it.
var raceEnabled bool

// perMatchBytes is what one more match of a row may cost through
// EvalBatch and Poll: its 24-byte Notification in Poll's slice, with
// slack for size-class rounding (24.56 B measured). It cost 48.2 B when
// a Notification was 48 bytes and carried its Row and Epoch itself, and
// 162.6 B when it was 88 bytes and each match built its own projected
// row.
const perMatchBytes = 32

// TestAllocEvalBatchPerMatch: k subscriptions with one select list that
// all match a row share that row's Image, so a match costs only its
// Notification.
func TestAllocEvalBatchPerMatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	row := []value.Tuple{eventRow(1, 50, "a")}
	measure := func(k int) uint64 {
		s := NewSet(newTestCatalog(t), Options{Queue: 1024})
		for i := 0; i < k; i++ {
			if _, err := s.Subscribe(fmt.Sprintf("SELECT id, num FROM events WHERE num >= %d", -i)); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			s.EvalBatch("events", row, 1)
			if ns, err := s.Poll(context.Background(), k); err != nil || len(ns) != k {
				t.Fatalf("%d subscriptions: %d notifications, err %v", k, len(ns), err)
			}
		}
		run()
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const small, large = 50, 250
	a, b := measure(small), measure(large)
	extra := (float64(b) - float64(a)) / (large - small)
	t.Logf("%d B for %d matches, %d B for %d: %.2f B per extra match", a, small, b, large, extra)
	if extra > perMatchBytes {
		t.Fatalf("a match costs %.2f B through EvalBatch and Poll, want at most %d", extra, perMatchBytes)
	}
}

// TestNotificationLayout: a Notification is 24 bytes, and its fields
// read and encode as they did when the Source and Image fields were its
// own.
func TestNotificationLayout(t *testing.T) {
	if size := unsafe.Sizeof(Notification{}); size != 24 {
		t.Fatalf("a Notification is %d bytes, want 24", size)
	}
	n := Notification{Seq: 1, Source: &Source{SubID: 2, Table: "events", Columns: []string{"id"}},
		Image: &Image{Row: value.Tuple{value.Int(9)}, Epoch: 3}}
	got, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seq":1,"subscription_id":2,"table":"events","columns":["id"],"epoch":3}`; string(got) != want {
		t.Fatalf("json %s, want %s", got, want)
	}
	if n.SubID != 2 || n.Table != "events" || n.Columns[0] != "id" || n.Row[0].AsInt() != 9 || n.Epoch != 3 {
		t.Fatalf("promoted fields read %d %q %v %v %d", n.SubID, n.Table, n.Columns, n.Row, n.Epoch)
	}
}

// TestProjectionSharedAcrossJoinOrders: a select list is one projection
// slot whatever position its model's join has, so `SELECT id, m.cls`
// under one join and under two shares one slot, and one Image, and both
// carry dt's prediction; `SELECT id, g.grp` carries nb's.
func TestProjectionSharedAcrossJoinOrders(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	ts := &mining.TrainSet{Schema: value.MustSchema(value.Column{Name: "cat", Kind: value.KindString})}
	for i := 0; i < 40; i++ {
		c := []string{"a", "b", "c", "d"}[i%4]
		ts.Rows = append(ts.Rows, value.Tuple{value.Str(c)})
		ts.Labels = append(ts.Labels, value.Str(map[bool]string{true: "x", false: "y"}[c < "c"]))
	}
	m, err := nbayes.Train("nb", "grp", ts, nbayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cat.RegisterModel(m, der.Envelopes)

	s := NewSet(cat, Options{})
	var ids [3]int64
	for i, sql := range []string{
		"SELECT id, m.cls FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE num >= 0",
		"SELECT id, m.cls FROM events PREDICTION JOIN nb AS g ON g.cat = events.cat" +
			" PREDICTION JOIN dt AS m ON m.num = events.num WHERE num >= 0",
		"SELECT id, g.grp FROM events PREDICTION JOIN nb AS g ON g.cat = events.cat WHERE num >= 0",
	} {
		if ids[i], err = s.Subscribe(sql); err != nil {
			t.Fatal(err)
		}
	}
	s.EvalBatch("events", []value.Tuple{eventRow(7, 80, "c")}, 1)
	ct := s.snapshot("events")
	if len(ct.projs) != 2 || ct.subs[0].proj != ct.subs[1].proj || ct.subs[2].proj == ct.subs[0].proj {
		t.Fatalf("projection slots %v for subscriptions in slots %d, %d, %d; want the first two shared",
			ct.projs, ct.subs[0].proj, ct.subs[1].proj, ct.subs[2].proj)
	}
	ns := drain(t, s, 10)
	if len(ns) != 3 {
		t.Fatalf("got %d notifications, want 3", len(ns))
	}
	want := map[int64]string{ids[0]: "[7 high]", ids[1]: "[7 high]", ids[2]: "[7 y]"}
	for _, n := range ns {
		if got := fmt.Sprintf("[%d %s]", n.Row[0].AsInt(), n.Row[1].AsString()); got != want[n.SubID] {
			t.Errorf("subscription %d row %s, want %s", n.SubID, got, want[n.SubID])
		}
	}
	if ns[0].Image != ns[1].Image {
		t.Error("two notifications of one row under one select list hold two Images")
	}
}

// indexBytes is what an interval index holds: per column, its cuts, the
// free bitset and the segment tree's two arrays.
func indexBytes(ix *intervalIndex) int {
	n := len(ix.full) * 8
	for _, c := range ix.cols {
		n += len(c.cuts)*int(unsafe.Sizeof(value.Value{})) + len(c.free)*8 + (len(c.start)+len(c.subs))*4
	}
	return n
}

// TestFootprintIntervalIndex: on a set shaped like a write stream's —
// mostly narrow ranges with distinct constants on one column, some
// mining predicates with a range, some with a category — the index
// grows linearly with the set: at most 96 bytes a subscription at 1,000
// and at 10,000 (73.8 KB and 521.5 KB measured). A bitset per segment
// would take 190 KB and 9.8 MB.
func TestFootprintIntervalIndex(t *testing.T) {
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	for _, n := range []int{1000, 10_000} {
		s := NewSet(cat, Options{})
		r := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			var sql string
			switch p := r.Intn(10); {
			case p < 2:
				sql = fmt.Sprintf("SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high' AND num >= %d", 9000+r.Intn(1000))
			case p < 3:
				sql = fmt.Sprintf("SELECT id FROM events WHERE cat = 'c%d'", r.Intn(16))
			default:
				lo := r.Intn(9900)
				sql = fmt.Sprintf("SELECT id FROM events WHERE num >= %d AND num <= %d", lo, lo+20+r.Intn(60))
			}
			if _, err := s.Subscribe(sql); err != nil {
				t.Fatal(err)
			}
		}
		ix := s.snapshot("events").index
		bytes := indexBytes(ix)
		t.Logf("%d subscriptions: %d indexed columns, %d bytes", n, len(ix.cols), bytes)
		if len(ix.cols) != 2 || bytes > 96*n {
			t.Fatalf("%d subscriptions: %d indexed columns in %d bytes, want 2 in at most %d", n, len(ix.cols), bytes, 96*n)
		}
	}
}

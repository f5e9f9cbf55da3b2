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

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
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
	subs := compiledSubs(ct)
	if len(ct.projs) != 2 || subs[0].proj != subs[1].proj || subs[2].proj == subs[0].proj {
		t.Fatalf("projection slots %v for subscriptions in slots %d, %d, %d; want the first two shared",
			ct.projs, subs[0].proj, subs[1].proj, subs[2].proj)
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
// mining predicates with a range, some with a category — the two
// parts' indexes together grow linearly with the set: at most 96 bytes
// a subscription at 1,000 and at 10,000. A bitset per segment would
// take 190 KB and 9.8 MB.
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
		ct := s.snapshot("events")
		bytes, cols := 0, map[int]bool{}
		for _, p := range []*part{ct.free, ct.joined} {
			bytes += indexBytes(p.index)
			for _, c := range p.index.cols {
				cols[c.ord] = true
			}
		}
		t.Logf("%d subscriptions: %d indexed columns, %d bytes in both parts", n, len(cols), bytes)
		if len(cols) != 2 || bytes > 96*n {
			t.Fatalf("%d subscriptions: %d indexed columns in %d bytes, want 2 in at most %d", n, len(cols), bytes, 96*n)
		}
	}
}

// recompileSlack bounds how much more a recompile may allocate with
// 2,000 model-free subscriptions registered than with 100, the joined
// ones fixed: what grows with the registered set is the model part's
// bitsets, one word per 64 subscriptions in its index's full set, in
// each indexed column's free set and in its rank array.
const recompileSlack = 1024

// TestAllocRecompileFollowsJoinedSubs: a recompile after Invalidate
// compiles and indexes the joined subscriptions alone, so with the same
// 60 joined subscriptions it allocates the same, within recompileSlack,
// whether 100 or 2,000 model-free subscriptions are registered.
func TestAllocRecompileFollowsJoinedSubs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cat := newTestCatalog(t)
	trainThreshold(t, cat, "dt", 50)
	measure := func(free int) uint64 {
		s := NewSet(cat, Options{})
		r := rand.New(rand.NewSource(5))
		for i := 0; i < free+60; i++ {
			sql := fmt.Sprintf("SELECT id FROM events WHERE num >= %d AND num <= %d", i*10, i*10+5+r.Intn(20))
			if i%(free/60+1) == 0 && i/(free/60+1) < 60 {
				sql = fmt.Sprintf("SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high' AND num >= %d", 50+r.Intn(50))
			}
			if _, err := s.Subscribe(sql); err != nil {
				t.Fatal(err)
			}
		}
		if ct := s.snapshot("events"); len(ct.joined.subs) != 60 || len(ct.free.subs) != free {
			t.Fatalf("%d joined and %d model-free subscriptions, want 60 and %d", len(ct.joined.subs), len(ct.free.subs), free)
		}
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			s.Invalidate()
			runtime.ReadMemStats(&before)
			s.snapshot("events")
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := measure(100), measure(2000)
	t.Logf("a recompile allocates %d B beside 100 model-free subscriptions and %d B beside 2,000", small, large)
	if large > small+recompileSlack {
		t.Fatalf("a recompile allocates %d B beside 2,000 model-free subscriptions, %d B beside 100: want at most %d B more",
			large, small, recompileSlack)
	}
}

// BenchmarkRecompileAfterRetrain times the recompile a retrain causes on
// a set shaped like a write stream's: 1,000 subscriptions, 30% joining
// a model, the rest narrow ranges. Each iteration registers the other of
// two trained versions of the model and recompiles.
func BenchmarkRecompileAfterRetrain(b *testing.B) {
	cat := catalog.New()
	if _, err := cat.CreateTable("events", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
	)); err != nil {
		b.Fatal(err)
	}
	type version struct {
		m    mining.Model
		envs map[string]expr.Expr
	}
	var versions [2]version
	for i, thr := range []int64{50, 90} {
		ts := &mining.TrainSet{Schema: value.MustSchema(value.Column{Name: "num", Kind: value.KindInt})}
		for v := int64(0); v < 100; v++ {
			ts.Rows = append(ts.Rows, value.Tuple{value.Int(v)})
			ts.Labels = append(ts.Labels, value.Str(map[bool]string{true: "high", false: "low"}[v >= thr]))
		}
		m, err := dtree.Train("dt", "cls", ts, dtree.Options{})
		if err != nil {
			b.Fatal(err)
		}
		der, err := core.UpperEnvelopes(m, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		versions[i] = version{m, der.Envelopes}
	}
	cat.RegisterModel(versions[0].m, versions[0].envs)
	s := NewSet(cat, Options{})
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		var sql string
		switch p := r.Intn(10); {
		case p < 2:
			sql = fmt.Sprintf("SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high' AND num >= %d", 9000+r.Intn(1000))
		case p < 3:
			sql = fmt.Sprintf("SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'low' AND cat = 'c%d'", r.Intn(16))
		default:
			lo := r.Intn(9900)
			sql = fmt.Sprintf("SELECT id FROM events WHERE num >= %d AND num <= %d", lo, lo+20+r.Intn(60))
		}
		if _, err := s.Subscribe(sql); err != nil {
			b.Fatal(err)
		}
	}
	s.snapshot("events")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := versions[(i+1)%2]
		b.StopTimer()
		cat.RegisterModel(v.m, v.envs)
		s.Invalidate()
		b.StartTimer()
		s.snapshot("events")
	}
}

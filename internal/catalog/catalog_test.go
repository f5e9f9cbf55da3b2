package catalog

import (
	"fmt"
	"strings"
	"testing"

	"minequery/internal/btree"
	"minequery/internal/expr"
	"minequery/internal/fault"
	"minequery/internal/storage"
	"minequery/internal/value"
)

func demoSchema() *value.Schema {
	return value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
		value.Column{Name: "score", Kind: value.KindFloat},
	)
}

func TestCreateAndLookupTable(t *testing.T) {
	c := New()
	tb, err := c.CreateTable("Customers", demoSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("customers", demoSchema()); err == nil {
		t.Error("duplicate table (case-insensitive) should fail")
	}
	got, ok := c.Table("CUSTOMERS")
	if !ok || got != tb {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("lookup of missing table should fail")
	}
	if n := len(c.Tables()); n != 1 {
		t.Errorf("Tables() returned %d", n)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	if _, err := tb.Insert(value.Tuple{value.Int(1), value.Str("a"), value.Float(0.5)}); err != nil {
		t.Fatalf("valid insert failed: %v", err)
	}
	// INT widens into FLOAT column.
	if _, err := tb.Insert(value.Tuple{value.Int(2), value.Str("b"), value.Int(7)}); err != nil {
		t.Fatalf("int-into-float insert failed: %v", err)
	}
	// NULL allowed anywhere.
	if _, err := tb.Insert(value.Tuple{value.Null(), value.Null(), value.Null()}); err != nil {
		t.Fatalf("null insert failed: %v", err)
	}
	if _, err := tb.Insert(value.Tuple{value.Str("x"), value.Str("a"), value.Float(1)}); err == nil {
		t.Error("kind mismatch should fail")
	}
	if _, err := tb.Insert(value.Tuple{value.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestFetchRoundTrip(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	row := value.Tuple{value.Int(42), value.Str("hello"), value.Float(3.25)}
	rid, err := tb.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := tb.Fetch(rid)
	if err != nil || !ok {
		t.Fatalf("fetch failed: %v %v", ok, err)
	}
	if !got.Equal(row) {
		t.Errorf("fetched %v, want %v", got, row)
	}
}

// TestInsertRecordStoresLoggedBytes: the apply path stores a logged
// record's bytes as they are, re-encodes one only when normalization
// changed its row, refuses a corrupt or ill-kinded one without storing
// it, and, handed a victim's pre-image, keys the old index entries from
// it without reading the heap.
func TestInsertRecordStoresLoggedBytes(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	ix, err := c.CreateIndex("ix_cat", "t", "cat")
	if err != nil {
		t.Fatal(err)
	}
	stored := func(rid storage.RID) []byte {
		rec, ok, err := tb.Heap.GetInto(nil, rid)
		if err != nil || !ok {
			t.Fatalf("get %s: ok %v, err %v", rid, ok, err)
		}
		return rec
	}
	row := value.Tuple{value.Int(1), value.Str("a"), value.Float(0.5)}
	rec := value.EncodeTuple(nil, row)
	rid, got, err := tb.InsertRecord(rec, nil)
	if err != nil || !got.Equal(row) || string(stored(rid)) != string(rec) {
		t.Fatalf("InsertRecord: row %v, err %v; stored %x, logged %x", got, err, stored(rid), rec)
	}
	// An INT in the FLOAT column is widened, and the widened row stored.
	widened := value.Tuple{value.Int(2), value.Str("b"), value.Float(7)}
	rid2, got, err := tb.InsertRecord(value.EncodeTuple(nil, value.Tuple{value.Int(2), value.Str("b"), value.Int(7)}), got)
	if err != nil || !got.Equal(widened) || string(stored(rid2)) != string(value.EncodeTuple(nil, widened)) {
		t.Fatalf("widening InsertRecord: row %v, err %v, stored %x", got, err, stored(rid2))
	}
	for what, bad := range map[string][]byte{
		"corrupt":    rec[:len(rec)-1],
		"ill-kinded": value.EncodeTuple(nil, value.Tuple{value.Str("x"), value.Str("a"), value.Float(1)}),
	} {
		if _, _, err := tb.InsertRecord(bad, nil); err == nil {
			t.Errorf("%s record stored", what)
		}
	}
	if n := tb.Heap.Len(); n != 2 || ix.Tree.Len() != 2 {
		t.Fatalf("%d rows, %d index entries after two good records, want 2 and 2", n, ix.Tree.Len())
	}
	// With every random read failing, a pre-image is all an update or a
	// delete of an indexed row may use.
	tb.Heap.SetFaults(fault.NewInjector(1, fault.Rule{Site: fault.SitePageReadRand, EveryN: 1, Err: fault.ErrInjected}))
	if _, err := tb.Delete(rid2); err == nil {
		t.Fatal("Delete without a pre-image did not read the heap")
	}
	moved := value.Tuple{value.Int(1), value.Str("z"), value.Float(0.5)}
	rid, _, err = tb.UpdateRecord(rid, row, value.EncodeTuple(nil, moved), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := tb.DeleteRecord(rid2, widened); !ok || err != nil {
		t.Fatalf("DeleteRecord with a pre-image: %v, %v", ok, err)
	}
	tb.Heap.SetFaults(nil)
	var keys []string
	ix.Tree.AscendRange(nil, nil, true, true, func(e btree.Entry) bool {
		keys = append(keys, fmt.Sprintf("%x->%s", e.Key, e.RID))
		return true
	})
	if want := fmt.Sprintf("%x->%s", value.Str("z").SortKey(nil), rid); strings.Join(keys, " ") != want || tb.Heap.Len() != 1 {
		t.Fatalf("index %v, %d rows; want [%s] and 1", keys, tb.Heap.Len(), want)
	}
}

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

// TestAllocNarrowSchemaCached: NarrowSchema is the table's columns a mask
// marks, in table order, and once a mask has been seen its schema comes
// back — the same one — without allocating.
func TestAllocNarrowSchemaCached(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	if tb.NarrowSchema(nil) != tb.Schema {
		t.Fatal("a nil mask must give the table's own schema")
	}
	rid, err := tb.Insert(value.Tuple{value.Int(42), value.Str("hello"), value.Float(3.25)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		need []bool
		want string
		row  value.Tuple
	}{
		{[]bool{true, false, true}, "(id INT, score FLOAT)", value.Tuple{value.Int(42), value.Float(3.25)}},
		{[]bool{false, true, false}, "(cat TEXT)", value.Tuple{value.Str("hello")}},
		{[]bool{false, false, false}, "()", value.Tuple{}},
	} {
		s := tb.NarrowSchema(tc.need)
		if s.String() != tc.want {
			t.Errorf("%v: schema %s, want %s", tc.need, s, tc.want)
		}
		row, ok, err := tb.FetchInto(nil, rid, nil, tc.need)
		if !ok || err != nil || !row.Equal(tc.row) {
			t.Errorf("%v: fetched %v (%v, %v), want %v", tc.need, row, ok, err, tc.row)
		}
		if again := tb.NarrowSchema(append([]bool(nil), tc.need...)); again != s {
			t.Errorf("%v: a second call built a second schema", tc.need)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { tb.NarrowSchema(tc.need) }); n != 0 {
			t.Errorf("%v: %v allocations per cached lookup, want 0", tc.need, n)
		}
	}
}

func TestIndexMaintenance(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	for i := 0; i < 100; i++ {
		tb.Insert(value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("c%d", i%5)), value.Float(float64(i))})
	}
	ix, err := c.CreateIndex("ix_cat", "t", "cat")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 100 {
		t.Errorf("backfilled index has %d entries, want 100", ix.Tree.Len())
	}
	// New inserts maintain the index.
	tb.Insert(value.Tuple{value.Int(100), value.Str("c0"), value.Float(1)})
	if ix.Tree.Len() != 101 {
		t.Errorf("index not maintained on insert: %d", ix.Tree.Len())
	}
	if _, err := c.CreateIndex("ix_cat", "t", "cat"); err == nil {
		t.Error("duplicate index name should fail")
	}
	if _, err := c.CreateIndex("ix2", "t", "missing"); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := c.CreateIndex("ix3", "missing", "cat"); err == nil {
		t.Error("index on missing table should fail")
	}
	if ixs := tb.Indexes(); len(ixs) != 1 || ixs[0] != ix {
		t.Errorf("Indexes = %v, want [ix_cat]", ixs)
	}
	if err := c.DropIndexes("t"); err != nil {
		t.Fatal(err)
	}
	if len(tb.Indexes()) != 0 {
		t.Error("DropIndexes left indexes behind")
	}
	if err := c.DropIndexes("missing"); err == nil {
		t.Error("DropIndexes on missing table should fail")
	}
}

func TestCompositeIndexKey(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	tb.Insert(value.Tuple{value.Int(1), value.Str("a"), value.Float(1)})
	tb.Insert(value.Tuple{value.Int(1), value.Str("b"), value.Float(2)})
	ix, err := c.CreateIndex("ix", "t", "cat", "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Ordinals) != 2 || ix.Ordinals[0] != 1 || ix.Ordinals[1] != 0 {
		t.Errorf("ordinals = %v", ix.Ordinals)
	}
	k1 := ix.KeyFor(value.Tuple{value.Int(1), value.Str("a"), value.Float(1)})
	k2 := ix.KeyFor(value.Tuple{value.Int(1), value.Str("b"), value.Float(2)})
	if string(k1) >= string(k2) {
		t.Error("composite keys should order by cat first")
	}
}

func TestAnalyzeAndStats(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	if tb.Stats() != nil {
		t.Error("stats should be nil before Analyze")
	}
	for i := 0; i < 50; i++ {
		tb.Insert(value.Tuple{value.Int(int64(i)), value.Str("x"), value.Float(0)})
	}
	ts, err := tb.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if ts.RowCount != 50 {
		t.Errorf("RowCount = %d", ts.RowCount)
	}
	if tb.Stats() != ts {
		t.Error("Stats should return the analyzed result")
	}
}

// TestCorruptRecordFailsAnalyzeAndColumnarBuild: a record that does not
// decode is an error to both readers of the whole heap — the statistics
// keep their previous value instead of silently counting one row fewer,
// the column store is not built — on a plain and on a partitioned table.
func TestCorruptRecordFailsAnalyzeAndColumnarBuild(t *testing.T) {
	good := value.EncodeTuple(nil, value.Tuple{value.Int(1), value.Str("x"), value.Float(0)})
	corrupt := good[:len(good)-3] // the FLOAT is cut short
	for _, name := range []string{"plain", "partitioned"} {
		c := New()
		tb, err := c.CreateTable("t", demoSchema())
		if name == "partitioned" {
			tb, err = c.CreatePartitionedTable("p", demoSchema(), "id", []value.Value{value.Int(25)})
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 50; i++ {
			if _, err := tb.Insert(value.Tuple{value.Int(int64(i)), value.Str("x"), value.Float(0)}); err != nil {
				t.Fatal(err)
			}
		}
		before, err := tb.Analyze()
		if err != nil {
			t.Fatalf("%s: Analyze of a sound heap: %v", name, err)
		}
		var rid storage.RID
		if ph, ok := tb.Heap.(*storage.PartitionedHeap); ok {
			rid, err = ph.InsertPart(1, corrupt)
		} else {
			rid, err = tb.Heap.(*storage.Heap).Insert(corrupt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Analyze(); err == nil || !strings.Contains(err.Error(), "corrupt row") {
			t.Errorf("%s: Analyze over a corrupt record (%s) returned %v", name, rid, err)
		}
		if tb.Stats() != before {
			t.Errorf("%s: a failed Analyze replaced the statistics", name)
		}
		if err := tb.EnableColumnar(); err == nil {
			t.Errorf("%s: the column store was built over a corrupt record", name)
		}
		if tb.ColumnStore() != nil {
			t.Errorf("%s: a failed build left a column store behind", name)
		}
	}
}

type fakeModel struct{ name string }

func (f fakeModel) Name() string           { return f.name }
func (f fakeModel) PredictColumn() string  { return "cls" }
func (f fakeModel) InputColumns() []string { return []string{"cat"} }
func (f fakeModel) Classes() []value.Value { return []value.Value{value.Str("a"), value.Str("b")} }
func (f fakeModel) Predict(in value.Tuple) value.Value {
	return in[0]
}

func TestModelRegistrationAndVersioning(t *testing.T) {
	c := New()
	env := map[string]expr.Expr{
		value.Str("a").String(): expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("a")},
	}
	me := c.RegisterModel(fakeModel{name: "m1"}, env)
	if me.Version != 1 {
		t.Errorf("first version = %d, want 1", me.Version)
	}
	got, ver, ok := me.Envelope(value.Str("a"))
	if !ok || ver != 1 || got == nil {
		t.Error("envelope lookup failed")
	}
	if _, _, ok := me.Envelope(value.Str("zzz")); ok {
		t.Error("missing envelope should report ok=false")
	}
	me2 := c.RegisterModel(fakeModel{name: "M1"}, nil)
	if me2.Version != 2 {
		t.Errorf("re-registration should bump version, got %d", me2.Version)
	}
	if cur, _ := c.Model("m1"); cur != me2 {
		t.Error("lookup should return latest registration")
	}
	if len(c.Models()) != 1 {
		t.Error("Models() should have one entry")
	}
	if len(me2.Classes()) != 2 {
		t.Error("Classes proxy broken")
	}
}

func TestEpochAndInvalidationEvents(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", demoSchema())
	tb.Insert(value.Tuple{value.Int(1), value.Str("a"), value.Float(0.5)})

	var events []InvalidationEvent
	c.OnInvalidate(func(ev InvalidationEvent) { events = append(events, ev) })

	if c.Epoch() != 0 {
		t.Fatalf("fresh catalog epoch = %d, want 0", c.Epoch())
	}
	steps := []struct {
		do     func() error
		reason string
	}{
		{func() error { _, err := c.CreateIndex("ix", "t", "cat"); return err }, "index-created"},
		{func() error { _, err := c.Analyze("t"); return err }, "stats-refreshed"},
		{func() error { c.RegisterModel(fakeModel{name: "m"}, nil); return nil }, "model-registered"},
		{func() error { return c.DropIndexes("t") }, "index-dropped"},
		{func() error { return c.DropModel("m") }, "model-dropped"},
	}
	for i, s := range steps {
		before := c.Epoch()
		if err := s.do(); err != nil {
			t.Fatalf("step %d (%s): %v", i, s.reason, err)
		}
		if c.Epoch() != before+1 {
			t.Errorf("step %d (%s): epoch %d -> %d, want +1", i, s.reason, before, c.Epoch())
		}
		if len(events) != i+1 || events[i].Reason != s.reason {
			t.Fatalf("step %d: events = %+v, want last reason %q", i, events, s.reason)
		}
		if events[i].Epoch != c.Epoch() {
			t.Errorf("step %d: event epoch %d, catalog epoch %d", i, events[i].Epoch, c.Epoch())
		}
	}
	if err := c.DropModel("m"); err == nil {
		t.Error("dropping a missing model should fail")
	}
	if _, err := c.Analyze("nope"); err == nil {
		t.Error("analyzing a missing table should fail")
	}
}

func TestModelFingerprintStability(t *testing.T) {
	c := New()
	env := map[string]expr.Expr{
		"a": expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("a")},
	}
	me1 := c.RegisterModel(fakeModel{name: "m"}, env)
	me2 := c.RegisterModel(fakeModel{name: "m"}, env)
	if me1.Fingerprint == "" || me1.Fingerprint != me2.Fingerprint {
		t.Errorf("identical registrations should share a fingerprint: %q vs %q", me1.Fingerprint, me2.Fingerprint)
	}
	if me2.Version != 2 {
		t.Errorf("version should still bump, got %d", me2.Version)
	}
	env2 := map[string]expr.Expr{
		"a": expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("b")},
	}
	me3 := c.RegisterModel(fakeModel{name: "m"}, env2)
	if me3.Fingerprint == me1.Fingerprint {
		t.Error("changed envelopes should change the fingerprint")
	}
	me4 := c.RegisterModel(fakeModel{name: "other"}, env)
	if me4.Fingerprint == me1.Fingerprint {
		t.Error("different model names should not collide")
	}
}

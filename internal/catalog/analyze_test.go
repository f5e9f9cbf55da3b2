package catalog

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"minequery/internal/stats"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// analyzed is what one Analyze of tb allocates, in bytes and in
// allocations, after one unmeasured Analyze, with no collection running
// during the measured one.
func analyzed(t *testing.T, tb *Table) (bytes, mallocs uint64) {
	t.Helper()
	if _, err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAllocAnalyzeExactColumns: ANALYZE of a table whose columns all stay
// within exact counts allocates what their counts take, however many rows
// it reads. Rows decode into one reused tuple, and a column keeps nothing
// per row until it spills. The TEXT values are one byte long, and Go
// makes such strings without allocating, so no row pays for a decoded
// string either. A build that kept every value, or a tuple per row, would
// grow by tens of bytes a row.
func TestAllocAnalyzeExactColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	schema := value.MustSchema(
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "cat", Kind: value.KindString},
		value.Column{Name: "tier", Kind: value.KindInt},
	)
	table := func(n int) *Table {
		tb, err := New().CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := value.Tuple{value.Int(int64(i % 300)), value.Str(string(rune('a' + i%26))), value.Int(int64(i % 7))}
			if _, err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	small, large := table(10000), table(40000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, _ := analyzed(t, small)
	b, _ := analyzed(t, large)
	t.Logf("Analyze allocates %d B over 10,000 rows, %d B over 40,000", a, b)
	const slack = 4 << 10
	if b > a+slack {
		t.Fatalf("Analyze allocates with the rows it reads: %d B over 10,000 rows, %d B over 40,000 (at most %d B more)", a, b, slack)
	}
	if ts := large.Stats(); ts.Col("num").Exact == nil || ts.Col("cat").Distinct != 26 {
		t.Fatalf("the columns did not stay exact: %+v", ts.Cols)
	}
}

// TestAllocAnalyzeTextColumn: ANALYZE makes a string once per distinct
// TEXT value it decodes, not once per row, whether the column stays exact
// or spills to a histogram (whose slice holds every row's string, each
// the one interned). Four times the rows with the same strings allocate
// next to nothing more; four times the strings over the same rows
// allocate about one more a string.
func TestAllocAnalyzeTextColumn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	schema := value.MustSchema(
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "segment", Kind: value.KindString},
		value.Column{Name: "name", Kind: value.KindString},
	)
	// table holds n rows of d segments (exact) and 10d names (spilled).
	table := func(n, d int) *Table {
		tb, err := New().CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := value.Tuple{value.Int(int64(i % 300)), value.Str("segment-" + strconv.Itoa(i%d)), value.Str("name-" + strconv.Itoa(i%(10*d)))}
			if _, err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, few := analyzed(t, table(10000, 100))
	large := table(40000, 100)
	_, manyRows := analyzed(t, large)
	_, manyStrings := analyzed(t, table(10000, 300))
	t.Logf("Analyze makes %d allocations over 10,000 rows of 1,100 strings, %d over 40,000 rows, %d over 10,000 rows of 3,300 strings", few, manyRows, manyStrings)
	if perRow := float64(int64(manyRows)-int64(few)) / 30000; perRow > 0.01 {
		t.Errorf("Analyze allocates %.3f times more per extra row, at most 0.01", perRow)
	}
	if extra := int64(manyStrings) - int64(few); extra < 2200 || extra > 2*2200 {
		t.Errorf("2,200 more strings took %d more allocations, want one or two a string", extra)
	}
	if ts := large.Stats(); ts.Col("segment").Exact == nil || ts.Col("name").Exact != nil || ts.Col("name").Distinct != 1000 {
		t.Fatalf("segment did not stay exact, or name did not spill with 1,000 distinct: %+v", ts.Cols)
	}
}

// TestAnalyzeRefusesMistypedRecord: a record that decodes but holds a
// value of another kind than its column's is as corrupt to Analyze as
// one that does not decode, as it is to the column store's build. The
// column has spilled to a histogram, whose slice holds its kind alone.
func TestAnalyzeRefusesMistypedRecord(t *testing.T) {
	tb, err := New().CreateTable("t", demoSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stats.MaxExactDistinct+100; i++ {
		if _, err := tb.Insert(value.Tuple{value.Int(int64(i)), value.Str("x"), value.Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := tb.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	mistyped := value.EncodeTuple(nil, value.Tuple{value.Str("not an id"), value.Str("x"), value.Float(0)})
	if _, err := tb.Heap.(*storage.Heap).Insert(mistyped); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Analyze(); err == nil || !strings.Contains(err.Error(), "corrupt row") {
		t.Errorf("Analyze over a TEXT value in an INT column returned %v", err)
	}
	if tb.Stats() != before {
		t.Error("a failed Analyze replaced the statistics")
	}
}

// BenchmarkAnalyzeWide analyzes a 160k-row table shaped like the
// benchmark's wide table: a unique id and an INT of 10,000 values and one
// of 1,000 (the three that spill to histograms), INTs of 50, 20 and 5
// values and a 3-valued TEXT.
func BenchmarkAnalyzeWide(b *testing.B) {
	const n = 160000
	tb, err := New().CreateTable("wide", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "c", Kind: value.KindInt},
		value.Column{Name: "visits", Kind: value.KindInt},
		value.Column{Name: "tier", Kind: value.KindInt},
		value.Column{Name: "segment", Kind: value.KindString},
	))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	domains := []int{10000, 1000, 50, 20, 5, 3}
	for i := 0; i < n; i++ {
		row := value.Tuple{value.Int(int64(i))}
		for _, d := range domains[:5] {
			row = append(row, value.Int(int64(r.Intn(d))))
		}
		row = append(row, value.Str([]string{"regular", "vip", "budget"}[r.Intn(domains[5])]))
		if _, err := tb.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInternedStringsOutliveCompaction: ANALYZE and the sidecar build
// take their TEXT values from a per-build intern table, and a string in
// it is a copy, never the page's bytes. DELETEs and UPDATEs that make the
// heap compact its pages change no exact count's value and no string of
// the sidecar's dictionaries.
func TestInternedStringsOutliveCompaction(t *testing.T) {
	tb, err := New().CreateTable("t", value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "segment", Kind: value.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000
	rids := make([]storage.RID, n)
	rows := make([]value.Tuple, n)
	for i := range rids {
		rows[i] = value.Tuple{value.Int(int64(i)), value.Str("segment-" + strconv.Itoa(i%40))}
		if rids[i], err = tb.Insert(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}
	ts, err := tb.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cs := tb.ColumnStore()
	exact := ts.Col("segment").Exact
	if len(exact) != 40 || cs == nil {
		t.Fatalf("segment has %d exact counts, column store %v", len(exact), cs)
	}
	// Snapshots in strings of their own, which no write can reach.
	var wantExact, wantDict []string
	for _, vc := range exact {
		wantExact = append(wantExact, strings.Clone(vc.Val.AsString()))
	}
	dict := func() []string {
		var out []string
		for _, g := range cs.Groups {
			for i := 0; i < g.N; i++ {
				out = append(out, g.Cols[1].Value(i).AsString())
			}
		}
		return out
	}
	for _, s := range dict() {
		wantDict = append(wantDict, strings.Clone(s))
	}

	// Three rows of four die, and the fourth moves to the tail with a
	// segment no row had, opening pages behind which the dead ones compact.
	for i, rid := range rids {
		if i%4 != 0 {
			if _, err := tb.DeleteRecord(rid, rows[i]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		moved := value.Tuple{rows[i][0], value.Str("moved-" + strconv.Itoa(i))}
		if _, _, err := tb.UpdateRecord(rid, rows[i], value.EncodeTuple(nil, moved), nil); err != nil {
			t.Fatal(err)
		}
	}
	if sp := storage.SpaceOf(tb.Heap); sp.Compactions == 0 {
		t.Fatal("no page was compacted")
	}
	for i, vc := range exact {
		if vc.Val.AsString() != wantExact[i] {
			t.Fatalf("exact count %d holds %q, was %q", i, vc.Val.AsString(), wantExact[i])
		}
	}
	for i, s := range dict() {
		if s != wantDict[i] {
			t.Fatalf("sidecar row %d holds %q, was %q", i, s, wantDict[i])
		}
	}
}

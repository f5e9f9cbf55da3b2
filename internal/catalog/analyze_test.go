package catalog

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"minequery/internal/stats"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// analyzedBytes is what one Analyze of tb allocates, after one unmeasured
// Analyze, with no collection running during the measured one.
func analyzedBytes(t *testing.T, tb *Table) uint64 {
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
	return after.TotalAlloc - before.TotalAlloc
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
	a, b := analyzedBytes(t, small), analyzedBytes(t, large)
	t.Logf("Analyze allocates %d B over 10,000 rows, %d B over 40,000", a, b)
	const slack = 4 << 10
	if b > a+slack {
		t.Fatalf("Analyze allocates with the rows it reads: %d B over 10,000 rows, %d B over 40,000 (at most %d B more)", a, b, slack)
	}
	if ts := large.Stats(); ts.Col("num").Exact == nil || ts.Col("cat").Distinct != 26 {
		t.Fatalf("the columns did not stay exact: %+v", ts.Cols)
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

package minequery

import (
	"runtime"
	"strings"
	"testing"

	"minequery/internal/expr"
)

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

func trainSetFixture(t *testing.T, rows int) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "a", Kind: KindInt},
		Column{Name: "label", Kind: KindString},
		Column{Name: "note", Kind: KindString},
	)); err != nil {
		t.Fatal(err)
	}
	note := strings.Repeat("n", 512)
	batch := make([]Tuple, rows)
	for i := range batch {
		batch[i] = Tuple{Int(int64(i)), Int(int64(i % 7)), Str([]string{"x", "y"}[i%2]), Str(note)}
	}
	if err := eng.InsertBatch("t", batch); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBuildTrainSetWhere pins the train set a relational view yields:
// the rows passing the WHERE in heap order, narrowed to the inputs, each
// with its label — also when the label is one of the inputs or absent.
func TestBuildTrainSetWhere(t *testing.T) {
	eng := trainSetFixture(t, 300)
	where := expr.Cmp{Col: "id", Op: expr.OpGe, Val: Int(100)} // a column that is neither input nor label
	for _, tc := range []struct {
		name   string
		inputs []string
		label  string
	}{
		{"label apart", []string{"a"}, "label"},
		{"label among the inputs", []string{"a", "LABEL"}, "label"},
		{"no label", []string{"a", "id"}, ""},
	} {
		ts, err := eng.buildTrainSetWhere("t", tc.inputs, tc.label, where)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := ts.Validate(); err != nil || len(ts.Rows) != 200 {
			t.Fatalf("%s: %d rows, validate: %v", tc.name, len(ts.Rows), err)
		}
		for i, row := range ts.Rows {
			id := int64(100 + i)
			wantLabel := Str([]string{"x", "y"}[id%2])
			if tc.label == "" {
				wantLabel = Null()
			}
			if len(row) != len(tc.inputs) || row[0].AsInt() != id%7 || ts.Labels[i] != wantLabel {
				t.Fatalf("%s: row %d = %v label %v, want a=%d label %v", tc.name, i, row, ts.Labels[i], id%7, wantLabel)
			}
		}
	}
	if _, err := eng.buildTrainSetWhere("t", []string{"a"}, "nope", nil); err == nil || !strings.Contains(err.Error(), "no label column") {
		t.Errorf("unknown label column: err = %v", err)
	}
	if _, err := eng.buildTrainSetWhere("t", []string{"nope"}, "label", nil); err == nil || !strings.Contains(err.Error(), `no column "nope"`) {
		t.Errorf("unknown input column: err = %v", err)
	}
}

// TestExplainCreateModelShowsTrainView: EXPLAIN CREATE MODEL prints the
// plan training drains — the view's WHERE as a Filter and its columns
// as a Project over the scan — not a bare scan.
func TestExplainCreateModelShowsTrainView(t *testing.T) {
	eng := trainSetFixture(t, 10)
	got, err := eng.Explain("CREATE MODEL m ON t PREDICT label USING dtree AS SELECT a, label FROM t WHERE a > 5")
	if err != nil {
		t.Fatal(err)
	}
	want := "CreateModel(m family=dtree predict=label over t)\n" +
		"  Project(a, label)\n" +
		"    Filter(a > 5)\n" +
		"      SeqScan(t)\n"
	if got != want {
		t.Fatalf("EXPLAIN CREATE MODEL =\n%s\nwant\n%s", got, want)
	}
}

// TestAllocTrainSetReadsOnlyItsColumns: the train scan decodes the
// inputs, the label and the WHERE's columns; the half-KiB note of every
// row is never built.
func TestAllocTrainSetReadsOnlyItsColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 2000
	eng := trainSetFixture(t, rows)
	build := func() {
		if ts, err := eng.buildTrainSet("t", []string{"a"}, "label"); err != nil || len(ts.Rows) != rows {
			t.Fatalf("%v", err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > rows*512/2 {
		t.Fatalf("building a train set over (a, label) allocated %d B; the notes alone are %d B", got, rows*512)
	}
}

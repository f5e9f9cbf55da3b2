package main

import (
	"os"
	"path/filepath"
	"testing"

	"minequery/internal/value"
)

// TestLoadCSVInfersKindsFromEveryRow: a column is INT only when every
// data row's non-empty cell parses as an integer — a non-integer past
// the first row makes it TEXT — and an empty cell of an INT column loads
// as NULL.
func TestLoadCSVInfersKindsFromEveryRow(t *testing.T) {
	dir := t.TempDir()
	load := func(name, body string) (kinds []value.Kind, cells [][]value.Value) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := loadCSV(path, "class")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for d := range cs.Cols {
			kinds = append(kinds, cs.Schema.Col(d).Kind)
			var col []value.Value
			for i := 0; i < cs.Len(); i++ {
				col = append(col, cs.Cols[d].Value(i))
			}
			cells = append(cells, col)
		}
		return kinds, cells
	}

	kinds, cells := load("late_text.csv", "a,b,class\n1,7,x\n2,8,y\nfoo,9,x\n3,10,y\n")
	if kinds[0] != value.KindString || kinds[1] != value.KindInt {
		t.Fatalf("late_text.csv: kinds %v, want [TEXT INT]", kinds)
	}
	for i, want := range []value.Value{value.Str("1"), value.Str("2"), value.Str("foo"), value.Str("3")} {
		if cells[0][i] != want {
			t.Errorf("late_text.csv: a[%d] = %v, want %v", i, cells[0][i], want)
		}
	}

	kinds, cells = load("empty_int.csv", "a,b,class\n1,x,p\n,y,q\n3,,p\n")
	if kinds[0] != value.KindInt || kinds[1] != value.KindString {
		t.Fatalf("empty_int.csv: kinds %v, want [INT TEXT]", kinds)
	}
	for i, want := range []value.Value{value.Int(1), value.Null(), value.Int(3)} {
		if cells[0][i] != want {
			t.Errorf("empty_int.csv: a[%d] = %v, want %v", i, cells[0][i], want)
		}
	}
	if cells[1][2] != value.Str("") {
		t.Errorf("empty_int.csv: an empty TEXT cell loaded as %v, want the empty string", cells[1][2])
	}
}

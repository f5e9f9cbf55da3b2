package dataset

import (
	"fmt"
	"testing"

	"minequery/internal/value"
)

func TestTable2Inventory(t *testing.T) {
	specs := Table2()
	if len(specs) != 10 {
		t.Fatalf("Table 2 has %d data sets, want 10", len(specs))
	}
	// The paper's Table 2 numbers.
	want := map[string]struct {
		train, classes, clusters int
		testM                    float64
	}{
		"Anneal-U":      {598, 6, 6, 1.83},
		"Balance-Scale": {416, 3, 5, 1.28},
		"Chess":         {2130, 2, 5, 1.63},
		"Diabetes":      {512, 2, 5, 1.57},
		"Hypothyroid":   {1339, 2, 5, 1.78},
		"Letter":        {15000, 26, 26, 1.28},
		"Parity5+5":     {100, 2, 5, 1.04},
		"Shuttle":       {43500, 7, 7, 1.85},
		"Vehicle":       {564, 4, 5, 1.73},
		"Kdd-cup-99":    {100000, 23, 23, 4.72},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected data set %q", s.Name)
			continue
		}
		if s.TrainRows != w.train || s.Classes != w.classes || s.Clusters != w.clusters ||
			s.PaperTestMillions != w.testM {
			t.Errorf("%s: got (%d, %d, %d, %.2f), want (%d, %d, %d, %.2f)",
				s.Name, s.TrainRows, s.Classes, s.Clusters, s.PaperTestMillions,
				w.train, w.classes, w.clusters, w.testM)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("letter") == nil || ByName("Kdd-cup-99") == nil || ByName("KDDCUP99") == nil {
		t.Error("ByName should match case- and punctuation-insensitively")
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown set should be nil")
	}
}

func TestGenerationDeterministicAndInDomain(t *testing.T) {
	s := ByName("Shuttle")
	ts1 := s.TrainColumns()
	ts2 := s.TrainColumns()
	if ts1.Len() != s.TrainRows {
		t.Fatalf("train rows = %d, want %d", ts1.Len(), s.TrainRows)
	}
	for i := 0; i < ts1.Len(); i++ {
		for a := range ts1.Cols {
			if ts1.Cols[a].Value(i) != ts2.Cols[a].Value(i) {
				t.Fatal("generation must be deterministic")
			}
		}
		if ts1.Classes[ts1.Labels[i]] != ts2.Classes[ts2.Labels[i]] {
			t.Fatal("generation must be deterministic")
		}
	}
	for i := 0; i < ts1.Len(); i++ {
		for a := range ts1.Cols {
			x := ts1.Cols[a].Value(i).AsInt()
			if x < 0 || x >= int64(s.Attrs[a].Card) {
				t.Fatalf("row %d attr %d value %d outside domain [0, %d)", i, a, x, s.Attrs[a].Card)
			}
		}
	}
}

func TestClassSkewProfile(t *testing.T) {
	s := ByName("Letter")
	counts := map[string]int{}
	n := 60000
	s.TestRows(n, func(row value.Tuple) {
		counts[row[len(row)-1].String()]++
	})
	c0 := counts[s.ClassLabel(0).String()]
	cLast := counts[s.ClassLabel(s.Classes-1).String()]
	if c0 <= cLast {
		t.Errorf("class 0 (%d rows) should dominate the rarest class (%d rows)", c0, cLast)
	}
	if c0 < n/10 {
		t.Errorf("majority class too small: %d of %d", c0, n)
	}
	// The rarest classes are present but rare (the minShare regime).
	if cLast == 0 {
		t.Log("rarest class absent at this scale; acceptable for minShare ~3e-4")
	} else if float64(cLast)/float64(n) > 0.05 {
		t.Errorf("rarest class too common: %d of %d", cLast, n)
	}
}

func TestTestRowsMatchSchema(t *testing.T) {
	for _, s := range Table2() {
		schema := s.Schema()
		if schema.Len() != len(s.Attrs)+1 {
			t.Fatalf("%s: schema len %d, want %d", s.Name, schema.Len(), len(s.Attrs)+1)
		}
		count := 0
		s.TestRows(100, func(row value.Tuple) {
			count++
			if len(row) != schema.Len() {
				t.Fatalf("%s: row arity %d, schema %d", s.Name, len(row), schema.Len())
			}
			if row[len(row)-1].Kind() != value.KindString {
				t.Fatalf("%s: label should be TEXT", s.Name)
			}
		})
		if count != 100 {
			t.Fatalf("%s: generated %d rows, want 100", s.Name, count)
		}
	}
}

func TestLabelsCorrelateWithAttributes(t *testing.T) {
	// A sanity floor on learnability: the label must be far more
	// predictable than the prior for at least the majority classes.
	// (Model-specific accuracy is tested in the mining packages.)
	s := ByName("Balance-Scale")
	ts := s.TrainColumns()
	// Majority-class frequency.
	counts := map[string]int{}
	for _, id := range ts.Labels {
		counts[ts.Classes[id].String()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == len(ts.Labels) {
		t.Fatal("degenerate generation: a single class")
	}
}

// TestAttrNames: a generated spec's attributes are named a0, a1, … in
// order.
func TestAttrNames(t *testing.T) {
	s := ByName("Diabetes")
	for i, a := range s.Attrs {
		if want := fmt.Sprintf("a%d", i); a.Name != want {
			t.Errorf("attribute %d is named %q, want %q", i, a.Name, want)
		}
	}
}

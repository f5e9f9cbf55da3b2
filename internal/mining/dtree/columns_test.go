package dtree

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"minequery/internal/mining"
	"minequery/internal/value"
)

var (
	negZero = math.Copysign(0, -1)
	nanBits = math.Float64frombits(0x7ff8000000000bad)
	// floatCells are the FLOAT cells where a column form could lose a
	// value: NULL, NaN payloads, the infinities and both zeros.
	floatCells = []value.Value{value.Null(), value.Float(math.NaN()), value.Float(nanBits), value.Float(math.Inf(1)),
		value.Float(math.Inf(-1)), value.Float(negZero), value.Float(0), value.Float(1.5), value.Float(2)}
	// diffLabels render alike in pairs that differ as values — INT 2 and
	// FLOAT 2 — and differ in rendering where Equal holds — -0 and 0.
	diffLabels = []value.Value{value.Int(2), value.Float(2), value.Float(negZero), value.Float(0), value.Str("x"), value.Null()}
)

// specialTrainSet draws rows over a FLOAT attribute of floatCells and
// quarter steps, an INT attribute with NULLs and a TEXT attribute with
// NULLs, labelled from diffLabels, mostly by a function of the row.
func specialTrainSet(r *rand.Rand, n int) *mining.TrainSet {
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "f", Kind: value.KindFloat},
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)}
	texts := []value.Value{value.Str("a"), value.Str("b"), value.Str("c"), value.Null()}
	for k := 0; k < n; k++ {
		f := floatCells[r.Intn(len(floatCells))]
		if r.Intn(2) == 0 {
			f = value.Float(float64(r.Intn(24)-8) / 4)
		}
		i := value.Int(int64(r.Intn(9) - 4))
		if r.Intn(8) == 0 {
			i = value.Null()
		}
		s := texts[r.Intn(len(texts))]
		label := diffLabels[r.Intn(len(diffLabels))]
		if r.Intn(3) != 0 {
			switch {
			case s == value.Str("a"):
				label = diffLabels[r.Intn(2)]
			case !f.IsNull() && f.AsFloat() > 0:
				label = diffLabels[2+r.Intn(2)]
			case !i.IsNull() && i.AsInt() < 0:
				label = diffLabels[4]
			}
		}
		ts.Rows = append(ts.Rows, value.Tuple{f, i, s})
		ts.Labels = append(ts.Labels, label)
	}
	return ts
}

// TestTrainColumnsMatchesRows: a tree trained over a set's columns is,
// node for node, the tree the row-reading builder grows over its rows —
// attribute, kind, threshold bits, CatVal and leaf class by == — over
// NULL, NaN, the infinities, -0, INT and FLOAT attributes, and labels
// that render alike but differ as values.
func TestTrainColumnsMatchesRows(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, ts := range []*mining.TrainSet{specialTrainSet(r, 5+r.Intn(400)), mixedTrainSet(r, 5+r.Intn(400))} {
			cs, err := ts.Columns()
			if err != nil {
				t.Fatal(err)
			}
			_, classes := classIDs(ts.Labels)
			slices.SortFunc(classes, value.Compare)
			for _, opts := range []Options{{}, {MinLeaf: 1}, {MinLeaf: 9, MaxDepth: 3}} {
				m, err := TrainColumns("m", "c", cs, opts)
				if err != nil {
					t.Fatalf("seed %d %+v: %v", seed, opts, err)
				}
				if d := sameTree(m.Root, refTrain(ts, opts), "root"); d != "" {
					t.Fatalf("seed %d %+v: %s", seed, opts, d)
				}
				if !slices.Equal(m.Classes(), classes) {
					t.Fatalf("seed %d %+v: classes %v, want %v", seed, opts, m.Classes(), classes)
				}
			}
		}
	}
}

// fuzzTrainSet reads a table of up to 64 rows from data, four bytes a
// row: a FLOAT cell (floatCells, or a quarter step), an INT cell (NULL
// one time in eight), a TEXT cell (NULL one time in five) and a label
// from diffLabels.
func fuzzTrainSet(data []byte) *mining.TrainSet {
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "f", Kind: value.KindFloat},
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)}
	for len(data) >= 4 && len(ts.Rows) < 64 {
		f := value.Float(float64(int8(data[0])) / 4)
		if data[0]%4 == 0 {
			f = floatCells[int(data[0]/4)%len(floatCells)]
		}
		i := value.Int(int64(int8(data[1])) % 5)
		if data[1]%8 == 0 {
			i = value.Null()
		}
		s := value.Str(string(rune('a' + data[2]%4)))
		if data[2]%5 == 0 {
			s = value.Null()
		}
		ts.Rows = append(ts.Rows, value.Tuple{f, i, s})
		ts.Labels = append(ts.Labels, diffLabels[int(data[3])%len(diffLabels)])
		data = data[4:]
	}
	return ts
}

// FuzzTrainColumns: converting a row set to columns keeps every cell —
// its NULL mask, a FLOAT's bits, an INT and a TEXT exactly, each label's
// class — and the columns train the tree the rows do.
func FuzzTrainColumns(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 4, 1, 1, 1, 8, 2, 2, 2, 12, 3, 3, 3, 16, 4, 4, 4, 20, 5, 5, 5})
	f.Add([]byte{1, 1, 1, 0, 2, 2, 2, 1, 200, 3, 3, 2, 255, 4, 4, 3, 7, 9, 11, 4, 130, 12, 6, 5, 24, 16, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTrainSet(data)
		cs, err := ts.Columns()
		if len(ts.Rows) == 0 {
			if !errors.Is(err, mining.ErrEmptyTrainSet) {
				t.Fatalf("no rows: err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if cs.Len() != len(ts.Rows) {
			t.Fatalf("%d rows, want %d", cs.Len(), len(ts.Rows))
		}
		for i, row := range ts.Rows {
			for d, v := range row {
				c := &cs.Cols[d]
				got := c.Value(i)
				if c.IsNull(i) != v.IsNull() || got != v {
					t.Fatalf("row %d attribute %d: %v (%v, NULL %v), want %v (%v)", i, d, got, got.Kind(), c.IsNull(i), v, v.Kind())
				}
				if v.Kind() == value.KindFloat && math.Float64bits(c.Num[i]) != math.Float64bits(v.AsFloat()) {
					t.Fatalf("row %d attribute %d: bits %x, want %x", i, d, math.Float64bits(c.Num[i]), math.Float64bits(v.AsFloat()))
				}
			}
			if got := cs.Classes[cs.Labels[i]]; got.String() != ts.Labels[i].String() {
				t.Fatalf("row %d: class %v, label %v", i, got, ts.Labels[i])
			}
		}
		for _, opts := range []Options{{MinLeaf: 1}, {}} {
			m, err := TrainColumns("m", "c", cs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameTree(m.Root, refTrain(ts, opts), "root"); d != "" {
				t.Fatalf("%+v: %s", opts, d)
			}
		}
	})
}

package mining

import (
	"math"
	"testing"

	"minequery/internal/value"
)

type sumModel struct{}

func (sumModel) Name() string           { return "sum" }
func (sumModel) PredictColumn() string  { return "s" }
func (sumModel) InputColumns() []string { return []string{"b", "a"} }
func (sumModel) Classes() []value.Value { return []value.Value{value.Int(0), value.Int(1)} }
func (sumModel) Predict(in value.Tuple) value.Value {
	// Classifies by whether b comes before a (checks binding order).
	if in[0].AsInt() > in[1].AsInt() {
		return value.Int(1)
	}
	return value.Int(0)
}

func TestBindResolvesByNameAndOrder(t *testing.T) {
	s := value.MustSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
		value.Column{Name: "c", Kind: value.KindInt},
	)
	b, ok := Bind(sumModel{}, s)
	if !ok {
		t.Fatal("bind failed")
	}
	// Model wants (b, a): ordinals should be (1, 0).
	if b.Ordinals[0] != 1 || b.Ordinals[1] != 0 {
		t.Fatalf("ordinals = %v", b.Ordinals)
	}
	// Row: a=5, b=9, c=0. Model sees (9, 5) -> class 1.
	got := b.Predict(value.Tuple{value.Int(5), value.Int(9), value.Int(0)})
	if got.AsInt() != 1 {
		t.Errorf("bound predict = %v", got)
	}
	buf := make(value.Tuple, 2)
	got = b.PredictInto(value.Tuple{value.Int(9), value.Int(5), value.Int(0)}, buf)
	if got.AsInt() != 0 {
		t.Errorf("PredictInto = %v", got)
	}
}

func TestBindMissingColumn(t *testing.T) {
	s := value.MustSchema(value.Column{Name: "a", Kind: value.KindInt})
	if _, ok := Bind(sumModel{}, s); ok {
		t.Error("bind with missing column should fail")
	}
}

func TestTrainSetValidate(t *testing.T) {
	s := value.MustSchema(value.Column{Name: "x", Kind: value.KindInt})
	good := &TrainSet{
		Schema: s,
		Rows:   []value.Tuple{{value.Int(1)}, {value.Int(2)}},
		Labels: []value.Value{value.Str("a"), value.Str("b")},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	cases := []*TrainSet{
		{},
		{Schema: s},
		{Schema: s, Rows: []value.Tuple{{value.Int(1)}}, Labels: nil},
		{Schema: s, Rows: []value.Tuple{{value.Int(1), value.Int(2)}}, Labels: []value.Value{value.Str("a")}},
	}
	for i, ts := range cases {
		if err := ts.Validate(); err == nil {
			t.Errorf("case %d: invalid set accepted", i)
		}
	}
}

// TestClassSetAndColumnNames: a train set's columns list its classes in
// first-seen order and its attributes by name.
func TestClassSetAndColumnNames(t *testing.T) {
	s := value.MustSchema(
		value.Column{Name: "x", Kind: value.KindInt},
		value.Column{Name: "y", Kind: value.KindFloat},
	)
	ts := &TrainSet{
		Schema: s,
		Rows:   []value.Tuple{{value.Int(1), value.Float(1)}, {value.Int(2), value.Float(2)}, {value.Int(3), value.Float(3)}},
		Labels: []value.Value{value.Str("b"), value.Str("a"), value.Str("b")},
	}
	cs, err := ts.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if c := cs.Classes; len(c) != 2 || c[0].AsString() != "b" || c[1].AsString() != "a" {
		t.Errorf("Classes = %v (want first-seen order)", c)
	}
	if ids := cs.Labels; len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 0 {
		t.Errorf("Labels = %v, want [0 1 0]", ids)
	}
	for _, names := range [][]string{ts.ColumnNames(), cs.ColumnNames()} {
		if len(names) != 2 || names[0] != "x" || names[1] != "y" {
			t.Errorf("ColumnNames = %v", names)
		}
	}
}

// TestClassIDs pins the interning against what it replaces: two labels
// are one class exactly when Value.String renders them alike, whatever
// their kinds, and ids follow first-seen order.
func TestClassIDs(t *testing.T) {
	nan := math.NaN()
	labels := []value.Value{
		value.Str("a"), value.Int(2), value.Float(2), value.Str("2"), value.Null(), value.Str("NULL"),
		value.Float(nan), value.Float(nan), value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0),
		value.Bool(true), value.Str("TRUE"), value.Str("a"), value.Int(2), value.Null(), value.Bool(true),
	}
	cs := NewColumns(value.MustSchema(value.Column{Name: "x", Kind: value.KindInt}), 0)
	for _, l := range labels {
		if err := cs.Append(value.Tuple{value.Int(1)}, l); err != nil {
			t.Fatal(err)
		}
	}
	ids, classes := cs.Labels, cs.Classes
	byText := map[string]int{}
	for i, l := range labels {
		want, ok := byText[l.String()]
		if !ok {
			want = len(byText)
			byText[l.String()] = want
			if c := classes[want]; c.String() != l.String() || c.Kind() != l.Kind() {
				t.Errorf("class %d is %v, want the first label seen of it, %v", want, c, l)
			}
		}
		if int(ids[i]) != want {
			t.Errorf("label %d (%v): class %d, want %d", i, l, ids[i], want)
		}
	}
	if len(classes) != len(byText) {
		t.Errorf("%d classes, want %d", len(classes), len(byText))
	}
}

// TestColumnsRefuseForeignKinds: a numeric attribute holds INT, FLOAT or
// NULL cells; any other cell fails the conversion, naming the attribute
// and the row.
func TestColumnsRefuseForeignKinds(t *testing.T) {
	ts := &TrainSet{
		Schema: value.MustSchema(value.Column{Name: "x", Kind: value.KindInt}),
		Rows:   []value.Tuple{{value.Float(1.5)}, {value.Null()}, {value.Str("3")}},
		Labels: []value.Value{value.Str("a"), value.Str("a"), value.Str("b")},
	}
	_, err := ts.Columns()
	if err == nil || err.Error() != "mining: attribute x: TEXT value in a INT column (row 2)" {
		t.Fatalf("err = %v", err)
	}
}

package agg

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"minequery/internal/value"
)

func testSchema(t *testing.T) *value.Schema {
	t.Helper()
	return value.MustSchema(
		value.Column{Name: "cat", Kind: value.KindString},
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "f", Kind: value.KindFloat},
	)
}

func allItems() []Item {
	return []Item{
		{Func: None, Col: "cat"},
		{Func: Count, Star: true},
		{Func: Count, Col: "f"},
		{Func: Sum, Col: "num"},
		{Func: Sum, Col: "f"},
		{Func: Min, Col: "num"},
		{Func: Max, Col: "num"},
		{Func: Avg, Col: "num"},
		{Func: Avg, Col: "f"},
	}
}

// randTuples builds rows with NULLs, negative ints, and adversarial
// floats (tiny, huge, subnormal) that expose rounding-order effects.
func randTuples(r *rand.Rand, n int) []value.Tuple {
	cats := []string{"a", "b", "c", "d"}
	floats := []float64{0.1, -0.1, 1e300, -1e300, 1e-320, 3.14159, 1.0, 1e16, -1e-8}
	out := make([]value.Tuple, n)
	for i := range out {
		cat := value.Str(cats[r.Intn(len(cats))])
		num := value.Int(int64(r.Intn(2000) - 1000))
		f := value.Float(floats[r.Intn(len(floats))] * float64(r.Intn(7)+1))
		if r.Intn(10) == 0 {
			num = value.Null()
		}
		if r.Intn(10) == 0 {
			f = value.Null()
		}
		out[i] = value.Tuple{cat, num, f}
	}
	return out
}

func finalizeRows(t *testing.T, tab *Table) []string {
	t.Helper()
	rows := tab.Finalize()
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.String()
	}
	return out
}

// TestOrderIndependence is the property everything leans on: any
// sharding of the input into partial states, accumulated in any order
// and merged in any order, finalizes identically to the serial run.
func TestOrderIndependence(t *testing.T) {
	schema := testSchema(t)
	spec, err := Resolve(schema, []string{"cat"}, allItems())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	rows := randTuples(r, 5000)

	serial := NewTable(spec)
	for _, tup := range rows {
		serial.Add(tup)
	}
	want := finalizeRows(t, serial)

	for trial := 0; trial < 20; trial++ {
		parts := make([]*Table, r.Intn(7)+1)
		for i := range parts {
			parts[i] = NewTable(spec)
		}
		perm := r.Perm(len(rows))
		for _, ri := range perm {
			parts[r.Intn(len(parts))].Add(rows[ri])
		}
		merged := NewTable(spec)
		for _, i := range r.Perm(len(parts)) {
			merged.Merge(parts[i])
		}
		got := finalizeRows(t, merged)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: split/merge result differs\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestFloatSumExact pins the exact superaccumulator: a sum that plain
// left-to-right IEEE addition gets wrong must come out correctly
// rounded regardless of order.
func TestFloatSumExact(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "f", Kind: value.KindFloat})
	spec, err := Resolve(schema, nil, []Item{{Func: Sum, Col: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	// 1e16 + 1 + ... + 1 (100 ones) - 1e16 == 100 exactly; naive
	// float addition in this order loses the ones entirely.
	tab := NewTable(spec)
	tab.Add(value.Tuple{value.Float(1e16)})
	for i := 0; i < 100; i++ {
		tab.Add(value.Tuple{value.Float(1)})
	}
	tab.Add(value.Tuple{value.Float(-1e16)})
	got := tab.Finalize()[0][0].AsFloat()
	if got != 100 {
		t.Fatalf("exact float sum = %v, want 100", got)
	}
}

func TestFloatSpecials(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "f", Kind: value.KindFloat})
	spec, err := Resolve(schema, nil, []Item{{Func: Sum, Col: "f"}, {Func: Avg, Col: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"posinf", []float64{1, math.Inf(1)}, math.Inf(1)},
		{"neginf", []float64{math.Inf(-1), 5}, math.Inf(-1)},
		{"bothinf", []float64{math.Inf(-1), math.Inf(1)}, math.NaN()},
		{"nan", []float64{1, math.NaN(), 2}, math.NaN()},
	}
	for _, tc := range cases {
		tab := NewTable(spec)
		for _, f := range tc.in {
			tab.Add(value.Tuple{value.Float(f)})
		}
		row := tab.Finalize()[0]
		for i := 0; i < 2; i++ {
			got := row[i].AsFloat()
			if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(tc.want) && got != tc.want) {
				t.Errorf("%s item %d: got %v, want %v", tc.name, i, got, tc.want)
			}
		}
	}
}

// TestMinMaxOrderFree: MIN and MAX over the floats value.Compare orders
// least (NaN) or ties (−0.0 and 0.0) finalize to the same bytes for
// every order of the rows and every split into two merged tables — the
// row or worker that came first cannot show.
func TestMinMaxOrderFree(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "f", Kind: value.KindFloat})
	spec, err := Resolve(schema, nil, []Item{{Func: Min, Col: "f"}, {Func: Max, Col: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{math.NaN(), math.Copysign(0, -1), 0, 1}
	var want []byte
	var permute func(k int)
	permute = func(k int) {
		if k < len(in) {
			for i := k; i < len(in); i++ {
				in[k], in[i] = in[i], in[k]
				permute(k + 1)
				in[k], in[i] = in[i], in[k]
			}
			return
		}
		for cut := 0; cut <= len(in); cut++ {
			a, b := NewTable(spec), NewTable(spec)
			for i, f := range in {
				if i < cut {
					a.Add(value.Tuple{value.Float(f)})
				} else {
					b.Add(value.Tuple{value.Float(f)})
				}
			}
			a.Merge(b)
			got := value.EncodeTuple(nil, a.Finalize()[0])
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("rows %v split at %d finalize to %v, the first order to %x", in, cut, a.Finalize()[0], want)
			}
		}
	}
	permute(0)
}

func TestNullSemantics(t *testing.T) {
	schema := testSchema(t)
	spec, err := Resolve(schema, nil, allItems()[1:]) // drop the group-by item
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(spec)
	// Zero rows: COUNTs are 0, everything else NULL.
	row := tab.Finalize()[0]
	want := "(0, 0, NULL, NULL, NULL, NULL, NULL, NULL)"
	if row.String() != want {
		t.Fatalf("identity row = %s, want %s", row, want)
	}
	// All-NULL inputs behave the same except COUNT(*).
	tab = NewTable(spec)
	tab.Add(value.Tuple{value.Str("a"), value.Null(), value.Null()})
	tab.Add(value.Tuple{value.Str("b"), value.Null(), value.Null()})
	row = tab.Finalize()[0]
	want = "(2, 0, NULL, NULL, NULL, NULL, NULL, NULL)"
	if row.String() != want {
		t.Fatalf("all-null row = %s, want %s", row, want)
	}
}

func TestIntSumWraparound(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "n", Kind: value.KindInt})
	spec, err := Resolve(schema, nil, []Item{{Func: Sum, Col: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(spec)
	tab.Add(value.Tuple{value.Int(math.MaxInt64)})
	tab.Add(value.Tuple{value.Int(1)})
	if got := tab.Finalize()[0][0].AsInt(); got != math.MinInt64 {
		t.Fatalf("wraparound sum = %d, want MinInt64", got)
	}
}

func TestNullGroupKeysGroupTogether(t *testing.T) {
	schema := testSchema(t)
	spec, err := Resolve(schema, []string{"num"}, []Item{{Func: None, Col: "num"}, {Func: Count, Star: true}})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(spec)
	tab.Add(value.Tuple{value.Str("a"), value.Null(), value.Float(1)})
	tab.Add(value.Tuple{value.Str("b"), value.Null(), value.Float(2)})
	tab.Add(value.Tuple{value.Str("c"), value.Int(3), value.Float(3)})
	rows := tab.Finalize()
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2 (NULL keys must group)", len(rows))
	}
	if rows[0].String() != "(NULL, 2)" {
		t.Fatalf("NULL group first, got %s", rows[0])
	}
}

func TestResolveRejects(t *testing.T) {
	schema := testSchema(t)
	if _, err := Resolve(schema, nil, []Item{{Func: Sum, Col: "cat"}}); err == nil {
		t.Fatal("SUM over TEXT not rejected")
	}
	if _, err := Resolve(schema, []string{"cat"}, []Item{{Func: None, Col: "num"}}); err == nil {
		t.Fatal("plain item outside GROUP BY not rejected")
	}
	if _, err := Resolve(schema, []string{"nope"}, nil); err == nil {
		t.Fatal("unknown group-by column not rejected")
	}
}

// TestWireRoundTrip: encode → JSON → decode → merge must equal a direct
// merge, including exact float payloads and big.Int numerators.
func TestWireRoundTrip(t *testing.T) {
	schema := testSchema(t)
	spec, err := Resolve(schema, []string{"cat"}, allItems())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	rows := randTuples(r, 3000)

	serial := NewTable(spec)
	a, b := NewTable(spec), NewTable(spec)
	for i, tup := range rows {
		serial.Add(tup)
		if i%2 == 0 {
			a.Add(tup)
		} else {
			b.Add(tup)
		}
	}
	want := finalizeRows(t, serial)

	merged := NewTable(spec)
	for _, part := range []*Table{a, b} {
		blob, err := json.Marshal(part.EncodeWire())
		if err != nil {
			t.Fatal(err)
		}
		var w Wire
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatal(err)
		}
		if err := merged.MergeWire(&w); err != nil {
			t.Fatal(err)
		}
	}
	if got := finalizeRows(t, merged); !reflect.DeepEqual(got, want) {
		t.Fatalf("wire round-trip differs\n got %v\nwant %v", got, want)
	}
	if merged.Merges() != 2 {
		t.Fatalf("merges = %d, want 2", merged.Merges())
	}
}

func TestOutSchemaOrderAndKinds(t *testing.T) {
	schema := testSchema(t)
	spec, err := Resolve(schema, []string{"cat"}, []Item{
		{Func: Count, Star: true}, {Func: None, Col: "cat"}, {Func: Sum, Col: "f"}, {Func: Avg, Col: "num"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.OutSchema()
	if err != nil {
		t.Fatal(err)
	}
	want := "(count(*) INT, cat TEXT, sum(f) FLOAT, avg(num) FLOAT)"
	if out.String() != want {
		t.Fatalf("out schema %s, want %s", out, want)
	}
}

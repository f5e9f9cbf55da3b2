package expr

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"minequery/internal/value"
)

// The renderers as they were first written, kept as the oracle the
// append-form ones are checked against byte for byte: fmt and
// strings.Join over each node's String, and strconv's Format forms for
// values.

func oracleValueString(v value.Value) string {
	switch v.Kind() {
	case value.KindNull:
		return "NULL"
	case value.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case value.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case value.KindString:
		return strconv.Quote(v.AsString())
	case value.KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

func oracleString(e Expr) string {
	switch x := e.(type) {
	case TrueExpr:
		return "TRUE"
	case FalseExpr:
		return "FALSE"
	case Cmp:
		return fmt.Sprintf("%s %s %s", x.Col, x.Op, oracleValueString(x.Val))
	case In:
		parts := make([]string, len(x.Vals))
		for i, v := range x.Vals {
			parts[i] = oracleValueString(v)
		}
		return fmt.Sprintf("%s IN (%s)", x.Col, strings.Join(parts, ", "))
	case And:
		return oracleJoinKids(x.Kids, " AND ")
	case Or:
		return oracleJoinKids(x.Kids, " OR ")
	case Not:
		return "NOT (" + oracleString(x.Kid) + ")"
	case ColCmp:
		return fmt.Sprintf("%s %s %s", x.ColA, x.Op, x.ColB)
	}
	return e.String()
}

func oracleJoinKids(kids []Expr, sep string) string {
	if len(kids) == 0 {
		if sep == " AND " {
			return "TRUE"
		}
		return "FALSE"
	}
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + oracleString(k) + ")"
	}
	return strings.Join(parts, sep)
}

// renderValues adds to oracleValues the literals whose rendering has
// edges of its own: the integer extremes, and strings that need
// escaping, are not ASCII or are not UTF-8 at all.
var renderValues = append(append([]value.Value(nil), oracleValues...),
	value.Int(math.MinInt64), value.Int(math.MaxInt64), value.Float(math.SmallestNonzeroFloat64),
	value.Float(-math.MaxFloat64), value.Float(0.1), value.Float(1e-7),
	value.Str(`say "hi"`), value.Str(`back\slash`), value.Str("two\nlines\ttab"),
	value.Str("naïve 値 🙂"), value.Str("bad \xff\xfe utf-8"), value.Str("\x00\x7f"),
	value.Str(strings.Repeat("long ", 30)),
)

// checkRender compares e's String and Append forms with the oracle, and
// does the same for every node below e.
func checkRender(t *testing.T, e Expr) {
	t.Helper()
	want := oracleString(e)
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
	if got := string(Append([]byte("x|"), e)); got != "x|"+want {
		t.Fatalf("Append(\"x|\", e) = %q, oracle %q", got, "x|"+want)
	}
	switch x := e.(type) {
	case And:
		for _, k := range x.Kids {
			checkRender(t, k)
		}
	case Or:
		for _, k := range x.Kids {
			checkRender(t, k)
		}
	case Not:
		checkRender(t, x.Kid)
	case Cmp:
		if got := x.Val.String(); got != oracleValueString(x.Val) {
			t.Fatalf("Value.String() = %q, oracle %q", got, oracleValueString(x.Val))
		}
	}
}

// TestRenderMatchesOracle checks every node type's rendering against
// the oracle: fixed edge cases, then random trees nested up to six deep
// over renderValues.
func TestRenderMatchesOracle(t *testing.T) {
	x := Cmp{"a", OpEq, value.Int(1)}
	for _, e := range []Expr{
		TrueExpr{}, FalseExpr{}, And{}, Or{}, And{Kids: []Expr{}}, In{"a", nil},
		In{"m.risk", []value.Value{value.Null()}},
		Not{Kid: Not{Kid: Not{Kid: x}}},
		Not{Kid: And{}}, Not{Kid: Or{Kids: []Expr{x}}},
		And{Kids: []Expr{Not{Kid: Not{Kid: x}}, Or{Kids: []Expr{Not{Kid: And{}}, x}}}},
		ColCmp{"m.risk", OpNe, "segment"},
		Or{Kids: []Expr{ColCmp{"a", OpLe, "b"}, In{"c", []value.Value{value.Str("x"), value.Float(math.NaN())}}}},
	} {
		checkRender(t, e)
	}
	for _, v := range renderValues {
		for op := OpEq; op <= OpGe; op++ {
			checkRender(t, Cmp{"a", op, v})
		}
	}
	g := &treeGen{r: rand.New(rand.NewSource(7)), vals: renderValues}
	for i := 0; i < 3000; i++ {
		g.atoms = g.atoms[:0]
		checkRender(t, g.tree(1+g.r.Intn(6)))
	}
}

// FuzzRenderMatchesOracle decodes a tree from the fuzz bytes and joins
// it with atoms over the fuzzed string, integer and float, then checks
// the rendering against the oracle.
func FuzzRenderMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 0, 0, 2, 0, 1, 1}, `a "quoted" \ name`, int64(math.MinInt64), math.Copysign(0, -1))
	f.Add([]byte{6, 6, 9, 2, 0, 1, 7, 3}, "\xff\n値", int64(42), math.Inf(-1))
	f.Add([]byte{}, "", int64(0), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, s string, i int64, x float64) {
		if len(data) > 256 {
			return // a longer input only makes a bigger tree of the same shapes
		}
		d := &treeDecoder{data: data}
		e := Or{Kids: []Expr{
			d.tree(6),
			Not{Kid: Cmp{"a", OpGe, value.Str(s)}},
			And{Kids: []Expr{Cmp{"b", OpLt, value.Int(i)}, In{"c", []value.Value{value.Float(x), value.Str(s), value.Int(i)}}}},
		}}
		checkRender(t, e)
	})
}

// TestAllocStringRendersOnce: a node's String, called on the node, keeps
// its scratch on the stack and allocates only the text it returns.
func TestAllocStringRendersOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cmp := Cmp{"m.risk", OpEq, value.Str("vip")}
	in := In{"segment", []value.Value{value.Str("regular"), value.Int(7), value.Float(2.5)}}
	and := And{Kids: []Expr{cmp, in, Cmp{"age", OpGe, value.Int(30)}}}
	val := value.Str("budget")
	var sink string
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Cmp.String", func() { sink = cmp.String() }},
		{"In.String", func() { sink = in.String() }},
		{"And.String", func() { sink = and.String() }},
		{"Value.String", func() { sink = val.String() }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 1 {
			t.Errorf("%s: %v allocations, want 1", c.name, n)
		}
	}
	_ = sink
}

package expr

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"minequery/internal/value"
)

var testSchema = value.MustSchema(
	value.Column{Name: "a", Kind: value.KindInt},
	value.Column{Name: "b", Kind: value.KindInt},
	value.Column{Name: "c", Kind: value.KindString},
)

func tup(a, b int64, c string) value.Tuple {
	return value.Tuple{value.Int(a), value.Int(b), value.Str(c)}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		e    Expr
		t    value.Tuple
		want bool
	}{
		{Cmp{"a", OpEq, value.Int(1)}, tup(1, 0, ""), true},
		{Cmp{"a", OpEq, value.Int(1)}, tup(2, 0, ""), false},
		{Cmp{"a", OpNe, value.Int(1)}, tup(2, 0, ""), true},
		{Cmp{"a", OpLt, value.Int(5)}, tup(4, 0, ""), true},
		{Cmp{"a", OpLe, value.Int(5)}, tup(5, 0, ""), true},
		{Cmp{"a", OpGt, value.Int(5)}, tup(5, 0, ""), false},
		{Cmp{"a", OpGe, value.Int(5)}, tup(5, 0, ""), true},
		{Cmp{"c", OpEq, value.Str("x")}, tup(0, 0, "x"), true},
		{Cmp{"missing", OpEq, value.Int(1)}, tup(1, 0, ""), false},
	}
	for _, c := range cases {
		if got := c.e.Eval(testSchema, c.t); got != c.want {
			t.Errorf("%s on %v = %v, want %v", c.e, c.t, got, c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	nt := value.Tuple{value.Null(), value.Int(1), value.Str("x")}
	if (Cmp{"a", OpEq, value.Int(1)}).Eval(testSchema, nt) {
		t.Error("NULL = 1 must be false")
	}
	if (Cmp{"a", OpNe, value.Int(1)}).Eval(testSchema, nt) {
		t.Error("NULL <> 1 must be false")
	}
	if (Cmp{"a", OpEq, value.Null()}).Eval(testSchema, tup(1, 0, "")) {
		t.Error("a = NULL must be false")
	}
	if (In{"a", []value.Value{value.Int(1)}}).Eval(testSchema, nt) {
		t.Error("NULL IN (1) must be false")
	}
	// A NOT holds where its negation normal form does: a NULL fails a
	// comparison and its negation alike.
	one := []value.Value{value.Int(1)}
	for _, e := range []Expr{
		Not{Cmp{"a", OpEq, value.Int(1)}},
		Not{In{"a", one}},
		Not{Or{[]Expr{Cmp{"a", OpNe, value.Int(1)}, Cmp{"b", OpEq, value.Int(1)}}}},
		Not{In{"a", []value.Value{value.Int(1), value.Null()}}},
	} {
		if e.Eval(testSchema, nt) {
			t.Errorf("%s on a NULL a must be false", e)
		}
	}
	// NOT (a IN ()) folds to the empty AND, which every row passes.
	if e := (Not{In{"a", nil}}); !e.Eval(testSchema, nt) {
		t.Errorf("%s on a NULL a must be true", e)
	}
}

// TestAllocEvalNot: a NOT is evaluated by walking its kid, without
// building the negated atoms on the heap.
func TestAllocEvalNot(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, q := Cmp{"a", OpLe, value.Int(3)}, Cmp{"c", OpEq, value.Str("p")}
	in := In{"b", []value.Value{value.Int(1), value.Int(2), value.Int(7)}}
	row := tup(5, 7, "q")
	for _, e := range []Expr{
		Not{And{[]Expr{p, q, in}}},
		Not{Or{[]Expr{p, q, Not{in}}}},
		Not{in},
		Not{p},
	} {
		if n := testing.AllocsPerRun(100, func() { e.Eval(testSchema, row) }); n != 0 {
			t.Errorf("%s: %v allocations, want 0", e, n)
		}
	}
}

func TestInEval(t *testing.T) {
	in := In{"c", []value.Value{value.Str("x"), value.Str("y")}}
	if !in.Eval(testSchema, tup(0, 0, "y")) {
		t.Error("IN should match member")
	}
	if in.Eval(testSchema, tup(0, 0, "z")) {
		t.Error("IN should not match non-member")
	}
	if (In{"missing", []value.Value{value.Int(1)}}).Eval(testSchema, tup(1, 0, "")) {
		t.Error("IN on missing column must be false")
	}
}

func TestBooleanCombinators(t *testing.T) {
	p := Cmp{"a", OpGt, value.Int(0)}
	q := Cmp{"b", OpLt, value.Int(10)}
	tt := tup(1, 5, "")
	if !(And{[]Expr{p, q}}).Eval(testSchema, tt) {
		t.Error("AND of true conditions should be true")
	}
	if (And{[]Expr{p, Cmp{"b", OpGt, value.Int(10)}}}).Eval(testSchema, tt) {
		t.Error("AND with false child should be false")
	}
	if !(Or{[]Expr{Cmp{"a", OpLt, value.Int(0)}, q}}).Eval(testSchema, tt) {
		t.Error("OR with true child should be true")
	}
	if !(Not{Cmp{"a", OpLt, value.Int(0)}}).Eval(testSchema, tt) {
		t.Error("NOT false should be true")
	}
	if !(TrueExpr{}).Eval(testSchema, tt) || (FalseExpr{}).Eval(testSchema, tt) {
		t.Error("constants broken")
	}
}

func TestNewAndNewOr(t *testing.T) {
	p := Cmp{"a", OpEq, value.Int(1)}
	if _, ok := NewAnd().(TrueExpr); !ok {
		t.Error("empty AND should be TRUE")
	}
	if _, ok := NewOr().(FalseExpr); !ok {
		t.Error("empty OR should be FALSE")
	}
	if NewAnd(p) != (Expr)(p) {
		t.Error("single-child AND should collapse")
	}
	if _, ok := NewAnd(p, FalseExpr{}).(FalseExpr); !ok {
		t.Error("AND with FALSE should collapse to FALSE")
	}
	if _, ok := NewOr(p, TrueExpr{}).(TrueExpr); !ok {
		t.Error("OR with TRUE should collapse to TRUE")
	}
	// Flattening.
	inner := And{[]Expr{p, p}}
	if a, ok := NewAnd(inner, p).(And); !ok || len(a.Kids) != 3 {
		t.Error("nested AND should flatten")
	}
	innerOr := Or{[]Expr{p, p}}
	if o, ok := NewOr(innerOr, p).(Or); !ok || len(o.Kids) != 3 {
		t.Error("nested OR should flatten")
	}
}

func TestNegateOp(t *testing.T) {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %s", op)
		}
	}
}

func TestColumns(t *testing.T) {
	e := NewOr(
		NewAnd(Cmp{"b", OpEq, value.Int(1)}, In{"a", []value.Value{value.Int(2)}}),
		Not{Cmp{"c", OpEq, value.Str("x")}},
	)
	got := Columns(e)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Columns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Columns = %v, want %v", got, want)
		}
	}
}

// randomExpr builds a random predicate over schema columns a, b (ints in
// [0,10)) and c (strings in {p,q,r}).
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
			col := []string{"a", "b"}[r.Intn(2)]
			return Cmp{col, ops[r.Intn(len(ops))], value.Int(int64(r.Intn(10)))}
		case 1:
			vals := []value.Value{value.Str("p"), value.Str("q"), value.Str("r")}
			n := 1 + r.Intn(2)
			return In{"c", vals[:n]}
		default:
			return Cmp{"c", OpEq, value.Str([]string{"p", "q", "r"}[r.Intn(3)])}
		}
	}
	switch r.Intn(4) {
	case 0:
		return NewAnd(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return NewOr(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return Not{randomExpr(r, depth-1)}
	default:
		return NewAnd(randomExpr(r, depth-1), randomExpr(r, depth-1), randomExpr(r, depth-1))
	}
}

// randomTuple draws a row for randomExpr, each column NULL one time in
// eight.
func randomTuple(r *rand.Rand) value.Tuple {
	t := tup(int64(r.Intn(10)), int64(r.Intn(10)), []string{"p", "q", "r"}[r.Intn(3)])
	for i := range t {
		if r.Intn(8) == 0 {
			t[i] = value.Null()
		}
	}
	return t
}

func TestDNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		e := randomExpr(r, 3)
		d, ok := ToDNF(e, 0)
		if !ok {
			t.Fatal("unlimited ToDNF must succeed")
		}
		de := d.Expr()
		for j := 0; j < 40; j++ {
			tt := randomTuple(r)
			if e.Eval(testSchema, tt) != de.Eval(testSchema, tt) {
				t.Fatalf("DNF changed semantics of %s at %v (dnf: %s)", e, tt, de)
			}
		}
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		e := randomExpr(r, 3)
		s, ok := Simplify(e, 0)
		if !ok {
			t.Fatal("unlimited Simplify must succeed")
		}
		for j := 0; j < 40; j++ {
			tt := randomTuple(r)
			if e.Eval(testSchema, tt) != s.Eval(testSchema, tt) {
				t.Fatalf("Simplify changed semantics of %s at %v (got: %s)", e, tt, s)
			}
		}
	}
}

func TestToDNFBudget(t *testing.T) {
	// (a=0 OR a=1) AND (b=0 OR b=1) AND (c=p OR c=q) has 8 disjuncts.
	e := NewAnd(
		NewOr(Cmp{"a", OpEq, value.Int(0)}, Cmp{"a", OpEq, value.Int(1)}),
		NewOr(Cmp{"b", OpEq, value.Int(0)}, Cmp{"b", OpEq, value.Int(1)}),
		NewOr(Cmp{"c", OpEq, value.Str("p")}, Cmp{"c", OpEq, value.Str("q")}),
	)
	if d, ok := ToDNF(e, 8); !ok || len(d.Disjuncts) != 8 {
		t.Errorf("expected exactly 8 disjuncts within budget, got ok=%v n=%d", ok, len(d.Disjuncts))
	}
	if _, ok := ToDNF(e, 7); ok {
		t.Error("budget of 7 should be exceeded")
	}
}

func TestSimplifyContradictions(t *testing.T) {
	cases := []Expr{
		NewAnd(Cmp{"a", OpGt, value.Int(5)}, Cmp{"a", OpLt, value.Int(3)}),
		NewAnd(Cmp{"a", OpEq, value.Int(1)}, Cmp{"a", OpEq, value.Int(2)}),
		NewAnd(In{"c", []value.Value{value.Str("p")}}, Cmp{"c", OpNe, value.Str("p")}),
		NewAnd(Cmp{"a", OpGe, value.Int(5)}, Cmp{"a", OpLt, value.Int(5)}),
		NewAnd(In{"a", []value.Value{value.Int(1), value.Int(2)}}, In{"a", []value.Value{value.Int(3)}}),
		Cmp{"a", OpEq, value.Null()},
	}
	for _, e := range cases {
		s, ok := Simplify(e, 0)
		if !ok {
			t.Fatal("Simplify must succeed")
		}
		if _, isFalse := s.(FalseExpr); !isFalse {
			t.Errorf("Simplify(%s) = %s, want FALSE", e, s)
		}
	}
}

func TestSimplifyPointRange(t *testing.T) {
	e := NewAnd(Cmp{"a", OpGe, value.Int(5)}, Cmp{"a", OpLe, value.Int(5)})
	s, _ := Simplify(e, 0)
	if c, ok := s.(Cmp); !ok || c.Op != OpEq || c.Val.AsInt() != 5 {
		t.Errorf("point range should simplify to a = 5, got %s", s)
	}
}

func TestSimplifyAbsorption(t *testing.T) {
	p := Cmp{"a", OpEq, value.Int(1)}
	q := Cmp{"b", OpEq, value.Int(2)}
	// (a=1) OR (a=1 AND b=2) should absorb to a=1.
	e := NewOr(p, NewAnd(p, q))
	s, _ := Simplify(e, 0)
	if c, ok := s.(Cmp); !ok || c.Col != "a" {
		t.Errorf("absorption failed: got %s", s)
	}
	// Duplicate disjuncts collapse.
	e2 := NewOr(p, p)
	if s2, _ := Simplify(e2, 0); s2.String() != p.String() {
		t.Errorf("duplicate disjuncts should collapse: got %s", s2)
	}
}

func TestSimplifyTautology(t *testing.T) {
	p := Cmp{"a", OpEq, value.Int(1)}
	s, _ := Simplify(NewOr(p, Not{p}), 0)
	// a=1 OR a<>1 -> per-disjunct simplification keeps both; that's not a
	// tautology detector, but NOT TRUE/FALSE folding must work:
	s2, _ := Simplify(Not{FalseExpr{}}, 0)
	if _, ok := s2.(TrueExpr); !ok {
		t.Errorf("NOT FALSE should simplify to TRUE, got %s", s2)
	}
	_ = s
}

// TestImpliedDomain: Simplify narrows a column to the finite domain its
// disjuncts imply — the transitivity of Section 4.1, which the rewriter
// gets by simplifying the envelope-augmented predicate — or to FALSE when
// they imply none.
func TestImpliedDomain(t *testing.T) {
	c := func(v string) Expr { return Cmp{"c", OpEq, value.Str(v)} }
	in := func(vs ...string) Expr {
		vals := make([]value.Value, len(vs))
		for i, v := range vs {
			vals[i] = value.Str(v)
		}
		return In{"c", vals}
	}
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{NewAnd(NewOr(c("new"), in("mid", "old")), Cmp{"c", OpGe, value.Str("n")}), `(c = "new") OR (c = "old")`},
		{NewAnd(NewOr(c("old"), c("mid")), NewOr(c("mid"), c("new"))), `c = "mid"`},
		{NewAnd(in("mid", "old"), Cmp{"c", OpNe, value.Str("mid")}), `c = "old"`},
		{NewAnd(c("old"), c("new")), "FALSE"},
		{NewAnd(in("mid", "old"), Cmp{"c", OpLt, value.Str("m")}), "FALSE"},
		{FalseExpr{}, "FALSE"},
	} {
		got, ok := Simplify(tc.e, 0)
		if !ok || got.String() != tc.want {
			t.Errorf("Simplify(%s) = %s %v, want %s", tc.e, got, ok, tc.want)
		}
	}
}

// TestImplies: a conjunct p implies an atom q exactly when p AND NOT q
// simplifies to unsatisfiable.
func TestImplies(t *testing.T) {
	implies := func(p []Expr, q Expr) bool {
		_, sat := SimplifyConjunct(appendAtom(append([]Expr(nil), p...), q, true))
		return !sat
	}
	p := []Expr{Cmp{"a", OpGe, value.Int(5)}, Cmp{"a", OpLe, value.Int(7)}}
	if !implies(p, Cmp{"a", OpGt, value.Int(3)}) {
		t.Error("5<=a<=7 should imply a>3")
	}
	if implies(p, Cmp{"a", OpGt, value.Int(6)}) {
		t.Error("5<=a<=7 should not imply a>6")
	}
	if !implies([]Expr{Cmp{"c", OpEq, value.Str("p")}}, In{"c", []value.Value{value.Str("p"), value.Str("q")}}) {
		t.Error("c=p should imply c IN (p,q)")
	}
}

func TestStringRendering(t *testing.T) {
	e := NewAnd(Cmp{"a", OpGt, value.Int(1)}, In{"c", []value.Value{value.Str("x")}})
	got := e.String()
	want := `(a > 1) AND (c IN ("x"))`
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if (Not{TrueExpr{}}).String() != "NOT (TRUE)" {
		t.Error("NOT rendering broken")
	}
}

package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"minequery/internal/value"
)

// oracleValues are the literals the generated predicates compare with:
// INT and FLOAT spellings of one number, both zeros, NaNs with different
// payloads, infinities, NULL, strings that look like numbers, and the
// integers around where a FLOAT starts to render with an exponent.
var oracleValues = []value.Value{
	value.Int(2), value.Float(2), value.Float(2.5), value.Int(3), value.Int(-5), value.Float(-5),
	value.Int(0), value.Float(0), value.Float(math.Copysign(0, -1)),
	value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000001)),
	value.Float(math.Float64frombits(0xfff8000000000002)),
	value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Null(),
	value.Str("2"), value.Str("x"), value.Str("NaN"), value.Str(""), value.Bool(true), value.Bool(false),
	value.Int(999999), value.Float(999999), value.Int(1000000), value.Float(1e6), value.Float(1e21),
}

var oracleCols = []string{"a", "b", "c", "m.risk"}

var raceEnabled bool

// treeGen draws random predicate trees. Atoms are often drawn again from
// the ones already made, so a tree repeats them.
type treeGen struct {
	r     *rand.Rand
	vals  []value.Value // the literals drawn; oracleValues when nil
	atoms []Expr
	nodes []Expr // every subtree made, for the Same checks
}

func (g *treeGen) val() value.Value {
	if g.vals != nil {
		return g.vals[g.r.Intn(len(g.vals))]
	}
	return oracleValues[g.r.Intn(len(oracleValues))]
}
func (g *treeGen) col() string { return oracleCols[g.r.Intn(len(oracleCols))] }
func (g *treeGen) op() CmpOp   { return CmpOp(g.r.Intn(6)) }

func (g *treeGen) atom() Expr {
	if len(g.atoms) > 0 && g.r.Intn(3) == 0 {
		return g.atoms[g.r.Intn(len(g.atoms))]
	}
	var e Expr
	switch g.r.Intn(10) {
	case 0, 1, 2, 3, 4:
		e = Cmp{Col: g.col(), Op: g.op(), Val: g.val()}
	case 5, 6:
		vals := make([]value.Value, g.r.Intn(4))
		for i := range vals {
			vals[i] = g.val()
		}
		e = In{Col: g.col(), Vals: vals}
	case 7:
		e = ColCmp{ColA: g.col(), Op: g.op(), ColB: g.col()}
	case 8:
		e = TrueExpr{}
	default:
		e = FalseExpr{}
	}
	g.atoms = append(g.atoms, e)
	return e
}

// tree draws a tree that nests depth levels below its root, or less
// where a branch stops early at an atom.
func (g *treeGen) tree(depth int) Expr {
	if depth == 0 || g.r.Intn(6) == 0 {
		return g.atom()
	}
	var e Expr
	switch g.r.Intn(5) {
	case 0:
		e = Not{Kid: g.tree(depth - 1)}
	case 1, 2:
		e = And{Kids: g.kids(depth)}
	default:
		e = Or{Kids: g.kids(depth)}
	}
	g.nodes = append(g.nodes, e)
	return e
}

func (g *treeGen) kids(depth int) []Expr {
	n := 1 + g.r.Intn(3)
	if g.r.Intn(12) == 0 {
		n = 0
	}
	kids := make([]Expr, n)
	for i := range kids {
		kids[i] = g.tree(depth - 1)
	}
	return kids
}

// TestNormalFormsMatchOracle checks the normal forms against the oracle
// node for node on random trees nested at least four deep, under
// budgets the trees fit in and budgets they exceed.
func TestNormalFormsMatchOracle(t *testing.T) {
	g := &treeGen{r: rand.New(rand.NewSource(1))}
	for i := 0; i < 3000; i++ {
		g.atoms, g.nodes = g.atoms[:0], g.nodes[:0]
		e := g.tree(4 + g.r.Intn(3))
		checkNormalForms(t, e, g.atoms)
		checkSameAll(t, append(append([]Expr(nil), g.atoms...), g.nodes...))
		checkJoins(t, g.nodes)
		if t.Failed() {
			return
		}
	}
}

// TestSameFollowsRendering pins Same on the value pairs where rendering
// and comparison part ways.
func TestSameFollowsRendering(t *testing.T) {
	for _, a := range oracleValues {
		for _, b := range oracleValues {
			checkSame(t, Cmp{"a", OpEq, a}, Cmp{"a", OpEq, b})
		}
	}
	for _, f := range []float64{-999999, -1e6, 123456, 0.5, 1 << 53} {
		checkSame(t, Cmp{"a", OpEq, value.Int(int64(f))}, Cmp{"a", OpEq, value.Float(f)})
	}
	x := Cmp{"a", OpEq, value.Int(1)}
	for _, pair := range [][2]Expr{
		{And{}, TrueExpr{}}, {Or{}, FalseExpr{}}, {And{}, Or{}},
		{And{Kids: []Expr{x}}, Or{Kids: []Expr{x}}},
		{And{Kids: []Expr{x, x}}, Or{Kids: []Expr{x, x}}},
		{And{Kids: []Expr{x}}, Not{Kid: x}},
		{In{"a", nil}, In{"a", []value.Value{}}},
	} {
		checkSame(t, pair[0], pair[1])
	}
}

// FuzzSimplifyMatchesOracle decodes a tree from the fuzz bytes and runs
// the oracle checks on it.
func FuzzSimplifyMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 0, 0, 2, 0, 1, 1})
	f.Add([]byte{4, 2, 3, 0, 1, 5, 0, 8, 2, 2, 2, 6, 9, 9, 7})
	f.Add([]byte{2, 3, 1, 0, 3, 14, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // a longer input only makes a bigger tree of the same shapes
		}
		d := &treeDecoder{data: data}
		e := d.tree(6)
		checkNormalForms(t, e, d.atoms)
		checkSameAll(t, append(d.atoms, e))
	})
}

// treeDecoder reads a tree from bytes; past the end it reads zeros,
// which make atoms.
type treeDecoder struct {
	data  []byte
	atoms []Expr
}

func (d *treeDecoder) byte() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *treeDecoder) tree(depth int) Expr {
	k := d.byte() % 12
	if depth == 0 || k < 6 {
		return d.atom(k)
	}
	if k == 6 {
		return Not{Kid: d.tree(depth - 1)}
	}
	kids := make([]Expr, d.byte()%4)
	for i := range kids {
		kids[i] = d.tree(depth - 1)
	}
	if k < 9 {
		return And{Kids: kids}
	}
	return Or{Kids: kids}
}

func (d *treeDecoder) atom(k int) Expr {
	var e Expr
	switch k % 6 {
	case 0, 1:
		e = Cmp{Col: oracleCols[d.byte()%len(oracleCols)], Op: CmpOp(d.byte() % 6), Val: oracleValues[d.byte()%len(oracleValues)]}
	case 2:
		vals := make([]value.Value, d.byte()%4)
		for i := range vals {
			vals[i] = oracleValues[d.byte()%len(oracleValues)]
		}
		e = In{Col: oracleCols[d.byte()%len(oracleCols)], Vals: vals}
	case 3:
		e = ColCmp{ColA: oracleCols[d.byte()%len(oracleCols)], Op: CmpOp(d.byte() % 6), ColB: oracleCols[d.byte()%len(oracleCols)]}
	case 4:
		if len(d.atoms) > 0 {
			return d.atoms[d.byte()%len(d.atoms)]
		}
		e = TrueExpr{}
	default:
		e = FalseExpr{}
	}
	d.atoms = append(d.atoms, e)
	return e
}

// checkNormalForms compares ToDNF, Simplify and SimplifyConjunct on e
// with the oracle, under budgets e fits in and ones it exceeds.
func checkNormalForms(t *testing.T, e Expr, atoms []Expr) {
	t.Helper()
	before := e.String()
	budgets := []int{1, 2, 3, 5, 8, 64}
	if _, ok := oracleToDNF(e, 128); ok {
		budgets = append(budgets, 0) // unlimited, where that stays small
	}
	for _, max := range budgets {
		gotD, gotOK := ToDNF(e, max)
		wantD, wantOK := oracleToDNF(e, max)
		if gotOK != wantOK || !reflect.DeepEqual(gotD, wantD) {
			t.Fatalf("ToDNF(%s, %d) = %v %v, oracle %v %v", e, max, gotD, gotOK, wantD, wantOK)
		}
		gotE, gotOK := Simplify(e, max)
		wantE, wantOK := oracleSimplify(e, max)
		if gotOK != wantOK || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("Simplify(%s, %d) = %s %v, oracle %s %v", e, max, gotE, gotOK, wantE, wantOK)
		}
		// The rewriter hands its simplified predicates on, and each reader
		// that simplifies again must get them back as they are.
		if again, ok := Simplify(gotE, max); gotOK && (!ok || !Same(again, gotE)) {
			t.Fatalf("Simplify(Simplify(%s, %d)) = %s %v, not %s", e, max, again, ok, gotE)
		}
	}
	d, _ := oracleToDNF(e, 64)
	for _, c := range append(d.Disjuncts, Conjunct{Conds: atoms}) {
		got, gotSat := SimplifyConjunct(c.Conds)
		want, wantSat := oracleSimplifyConjunct(c.Conds)
		if gotSat != wantSat || !reflect.DeepEqual(got, want) {
			t.Fatalf("SimplifyConjunct(%v) = %v %v, oracle %v %v", c.Conds, got, gotSat, want, wantSat)
		}
	}
	if after := e.String(); after != before {
		t.Fatalf("normalizing changed its input from %s to %s", before, after)
	}
}

// checkJoins checks NewAnd and NewOr against the oracle's on the kids of
// every AND and OR node.
func checkJoins(t *testing.T, nodes []Expr) {
	t.Helper()
	for _, e := range nodes {
		var kids []Expr
		switch x := e.(type) {
		case And:
			kids = x.Kids
		case Or:
			kids = x.Kids
		default:
			continue
		}
		if got, want := NewAnd(kids...), oracleNewAnd(kids...); !reflect.DeepEqual(got, want) {
			t.Fatalf("NewAnd(%v) = %s, oracle %s", kids, got, want)
		}
		if got, want := NewOr(kids...), oracleNewOr(kids...); !reflect.DeepEqual(got, want) {
			t.Fatalf("NewOr(%v) = %s, oracle %s", kids, got, want)
		}
	}
}

// checkSameAll checks Same on every pair of nodes.
func checkSameAll(t *testing.T, nodes []Expr) {
	t.Helper()
	strs := make([]string, len(nodes))
	for i, e := range nodes {
		strs[i] = e.String()
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if got, want := Same(a, b), strs[i] == strs[j]; got != want {
				t.Fatalf("Same(%s, %s) = %v, their renderings are equal: %v", a, b, got, want)
			}
		}
	}
}

func checkSame(t *testing.T, a, b Expr) {
	t.Helper()
	if got, want := Same(a, b), a.String() == b.String(); got != want {
		t.Fatalf("Same(%s, %s) = %v, their renderings are equal: %v", a, b, got, want)
	}
}

// TestToDNFCollapsesBeforeItDistributes: a constant kid collapses its
// parent before anything distributes, and what collapses spends none of
// the budget.
func TestToDNFCollapsesBeforeItDistributes(t *testing.T) {
	x, y := Cmp{"a", OpEq, value.Int(1)}, Cmp{"b", OpEq, value.Int(2)}
	d, ok := ToDNF(And{Kids: []Expr{Or{Kids: []Expr{x, TrueExpr{}}}, y}}, 0)
	if want := []Conjunct{{Conds: []Expr{y}}}; !ok || !reflect.DeepEqual(d.Disjuncts, want) {
		t.Fatalf("AND(OR(x, TRUE), y) = %v %v, want %v", d.Disjuncts, ok, want)
	}
	wide := make([]Expr, 10)
	for i := range wide {
		wide[i] = Cmp{"a", OpEq, value.Int(int64(i))}
	}
	for _, e := range []Expr{
		Or{Kids: []Expr{Or{Kids: wide}, TrueExpr{}}},
		And{Kids: []Expr{Or{Kids: wide}, Or{Kids: wide}, FalseExpr{}}},
		Not{Kid: And{Kids: []Expr{Or{Kids: wide}, TrueExpr{}, Not{Kid: FalseExpr{}}}}},
	} {
		if _, ok := ToDNF(e, 2); !ok {
			t.Errorf("ToDNF(%s, 2) spent its budget on a subtree that collapses", e)
		}
	}
}

// TestAllocSimplifyKeepsOnlyItsResult: normalizing a two-disjunct
// predicate over three columns allocates little beyond the tree it
// returns.
func TestAllocSimplifyKeepsOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	var pred Expr = Or{Kids: []Expr{
		And{Kids: []Expr{
			Cmp{"a", OpGe, value.Int(1)}, Cmp{"a", OpLt, value.Int(10)}, Cmp{"c", OpEq, value.Str("x")},
		}},
		And{Kids: []Expr{
			In{"b", []value.Value{value.Int(1), value.Int(2)}}, Cmp{"a", OpGt, value.Int(3)}, Cmp{"c", OpNe, value.Str("y")},
		}},
	}}
	if n := testing.AllocsPerRun(100, func() { Simplify(pred, 8) }); n > 40 {
		t.Errorf("Simplify: %v allocations, want at most 40", n)
	}
	if n := testing.AllocsPerRun(100, func() { ToDNF(pred, 8) }); n > 10 {
		t.Errorf("ToDNF: %v allocations, want at most 10", n)
	}
}

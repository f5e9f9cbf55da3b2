package plan

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"minequery/internal/agg"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/value"
)

// The renderers as they were first written, kept as the oracle the
// append-form ones are checked against byte for byte: fmt, a
// strings.Builder per tree and strings.Join over each operator's
// description. Predicates and values render through their own String,
// which internal/expr checks against its oracle.

func oracleDescribe(n Node) string {
	switch x := n.(type) {
	case *SeqScan:
		name := x.Table
		if x.Columnar {
			name += " columnar"
		}
		if x.PartsTotal > 0 && x.Partitions != nil {
			return fmt.Sprintf("SeqScan(%s partitions: %d/%d pruned)",
				name, x.PartsTotal-len(x.Partitions), x.PartsTotal)
		}
		return "SeqScan(" + name + ")"
	case *IndexSeek:
		var b strings.Builder
		fmt.Fprintf(&b, "IndexSeek(%s.%s", x.Table, x.Index)
		for _, v := range x.EqVals {
			fmt.Fprintf(&b, " =%s", v)
		}
		if conds := expr.RangeConds("", x.Range); len(conds) > 0 {
			b.WriteString(" range")
			for _, c := range conds {
				cmp := c.(expr.Cmp)
				fmt.Fprintf(&b, " %s%s", cmp.Op, cmp.Val)
			}
		}
		b.WriteString(")")
		return b.String()
	case *IndexUnion:
		parts := make([]string, len(x.Seeks))
		for i, s := range x.Seeks {
			parts[i] = oracleDescribe(s)
		}
		return "IndexUnion[" + strings.Join(parts, ", ") + "]"
	case *ConstScan:
		return "ConstantScan(" + x.Table + ")"
	case *Filter:
		return "Filter(" + x.Pred.String() + ")"
	case *Project:
		if len(x.Cols) == 0 {
			return "Project(*)"
		}
		return "Project(" + strings.Join(x.Cols, ", ") + ")"
	case *Predict:
		return fmt.Sprintf("PredictionJoin(%s AS %s, v%d)", x.Model, x.As, x.Version)
	case *Limit:
		return fmt.Sprintf("Limit(%d)", x.N)
	case *HashAgg:
		var b strings.Builder
		fmt.Fprintf(&b, "HashAgg(%s", x.Phase)
		if len(x.GroupBy) > 0 {
			b.WriteString(" groups=[")
			b.WriteString(strings.Join(x.GroupBy, ", "))
			b.WriteString("]")
		}
		b.WriteString(" aggs=[")
		for i, it := range x.Aggs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(oracleItemName(it))
		}
		b.WriteString("])")
		return b.String()
	case *Mutation:
		switch x.Op {
		case "insert":
			return fmt.Sprintf("Insert(%s, %d rows)", x.Table, x.Rows)
		case "update":
			return fmt.Sprintf("Update(%s)", x.Table)
		case "delete":
			return fmt.Sprintf("Delete(%s)", x.Table)
		}
		return fmt.Sprintf("Mutation(%s, %s)", x.Op, x.Table)
	}
	panic(fmt.Sprintf("oracle: no description for %T", n))
}

func oracleItemName(it agg.Item) string {
	if it.Func == agg.None {
		return it.Col
	}
	if it.Star {
		return it.Func.String() + "(*)"
	}
	return it.Func.String() + "(" + it.Col + ")"
}

func oracleExplain(n Node) string {
	var b strings.Builder
	oracleExplainTo(&b, n, 0)
	return b.String()
}

func oracleExplainTo(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(oracleDescribe(n))
	b.WriteByte('\n')
	for _, c := range n.Children() {
		oracleExplainTo(b, c, depth+1)
	}
}

var raceEnabled bool

// planValues are the literals generated seeks and filters use: both
// kinds of number at their edges, NULL, and strings that need escaping
// or are not UTF-8.
var planValues = []value.Value{
	value.Int(0), value.Int(-3), value.Int(math.MinInt64), value.Int(math.MaxInt64),
	value.Float(2.5), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
	value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(1e21), value.Null(),
	value.Str("vip"), value.Str(`q"uo\te`), value.Str("line\nbreak"), value.Str("値"),
	value.Str("\xff"), value.Bool(true),
}

// planGen draws random plan trees over every node type.
type planGen struct{ r *rand.Rand }

func (g *planGen) val() value.Value { return planValues[g.r.Intn(len(planValues))] }

func (g *planGen) names(most int) []string {
	names := []string{"id", "age", "m.risk", "segment", "income"}
	return names[:g.r.Intn(most+1)]
}

// seek is an equality-prefix seek, a half-open or closed range seek, or
// both.
func (g *planGen) seek() *IndexSeek {
	s := &IndexSeek{Table: "customers", Index: "ix_age_income"}
	for range g.r.Intn(3) {
		s.EqVals = append(s.EqVals, g.val())
	}
	switch g.r.Intn(4) {
	case 0:
		s.Range = interval.Above(g.val(), g.r.Intn(2) == 0)
	case 1:
		s.Range = interval.Below(g.val(), g.r.Intn(2) == 0)
	case 2:
		s.Range = interval.Above(value.Int(-5), g.r.Intn(2) == 0).Intersect(interval.Below(value.Float(9.5), g.r.Intn(2) == 0))
	}
	return s
}

func (g *planGen) leaf() Node {
	switch g.r.Intn(5) {
	case 0:
		s := &SeqScan{Table: "customers", Columnar: g.r.Intn(2) == 0}
		if g.r.Intn(2) == 0 {
			s.PartsTotal = 1 + g.r.Intn(16)
			s.Partitions = make([]int, g.r.Intn(s.PartsTotal+1))
		}
		return s
	case 1:
		return g.seek()
	case 2:
		u := &IndexUnion{Table: "customers"}
		for range g.r.Intn(4) {
			u.Seeks = append(u.Seeks, g.seek())
		}
		return u
	case 3:
		return &ConstScan{Table: "customers"}
	}
	return &SeqScan{Table: "t"}
}

func (g *planGen) pred(depth int) expr.Expr {
	if depth == 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return expr.Cmp{Col: "age", Op: expr.CmpOp(g.r.Intn(6)), Val: g.val()}
		case 1:
			return expr.In{Col: "m.risk", Vals: []value.Value{g.val(), g.val()}[:g.r.Intn(3)]}
		}
		return expr.ColCmp{ColA: "m.risk", Op: expr.OpEq, ColB: "segment"}
	}
	kids := make([]expr.Expr, g.r.Intn(4))
	for i := range kids {
		kids[i] = g.pred(depth - 1)
	}
	switch g.r.Intn(3) {
	case 0:
		return expr.And{Kids: kids}
	case 1:
		return expr.Or{Kids: kids}
	}
	return expr.Not{Kid: g.pred(depth - 1)}
}

func (g *planGen) aggs() []agg.Item {
	items := []agg.Item{
		{Func: agg.Count, Star: true}, {Func: agg.None, Col: "segment"},
		{Func: agg.Sum, Col: "income"}, {Func: agg.Avg, Col: "age"},
		{Func: agg.Min, Col: "m.risk"}, {Func: agg.Max, Col: "id"},
	}
	g.r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items[:g.r.Intn(len(items)+1)]
}

func (g *planGen) tree(depth int) Node {
	if depth == 0 || g.r.Intn(5) == 0 {
		return g.leaf()
	}
	child := g.tree(depth - 1)
	switch g.r.Intn(7) {
	case 0:
		return &Filter{Child: child, Pred: g.pred(3)}
	case 1:
		return &Project{Child: child, Cols: g.names(4)}
	case 2:
		return &Predict{Child: child, Model: "risk_tree", As: "m.risk", Version: g.r.Int63n(1 << 40)}
	case 3:
		return &Limit{Child: child, N: g.r.Int63() - g.r.Int63()}
	case 4:
		return &HashAgg{Child: &HashAgg{Child: child, Phase: AggPartial, GroupBy: g.names(2), Aggs: g.aggs()}, Phase: AggFinal, GroupBy: g.names(3), Aggs: g.aggs()}
	case 5:
		m := &Mutation{Op: []string{"insert", "update", "delete", "upsert"}[g.r.Intn(4)], Table: "customers", Rows: g.r.Intn(500)}
		if m.Op != "insert" {
			m.Child = child
		}
		return m
	}
	return &Filter{Child: child, Pred: expr.TrueExpr{}}
}

func checkExplain(t *testing.T, n Node) {
	t.Helper()
	if got, want := Explain(n), oracleExplain(n); got != want {
		t.Fatalf("Explain:\n%s\noracle:\n%s", got, want)
	}
	if got, want := Describe(n), oracleDescribe(n); got != want {
		t.Fatalf("Describe = %q, oracle %q", got, want)
	}
}

// TestExplainMatchesOracle checks Explain and Describe
// against the oracle on the shapes the engine plans, then on random
// trees over every operator.
func TestExplainMatchesOracle(t *testing.T) {
	eq := &IndexSeek{Table: "customers", Index: "ix_age_income", EqVals: []value.Value{value.Int(8), value.Str("x")}}
	half := &IndexSeek{Table: "customers", Index: "ix_income", Range: interval.Above(value.Int(3), true)}
	count := []agg.Item{{Func: agg.Count, Star: true}, {Func: agg.None, Col: "segment"}, {Func: agg.Avg, Col: "income"}}
	for _, n := range []Node{
		&SeqScan{Table: "customers", Columnar: true, PartsTotal: 16, Partitions: []int{3}},
		&SeqScan{Table: "customers", PartsTotal: 4},
		&IndexUnion{Table: "customers", Seeks: []*IndexSeek{eq, half}},
		&IndexUnion{Table: "customers"},
		&HashAgg{Phase: AggFinal, GroupBy: []string{"segment"}, Aggs: count,
			Child: &HashAgg{Phase: AggPartial, GroupBy: []string{"segment"}, Aggs: count, Child: &SeqScan{Table: "customers"}}},
		&HashAgg{Phase: AggFinal, Aggs: count[:1], Child: &ConstScan{Table: "customers"}},
		&Limit{N: 3, Child: &Project{Child: &SeqScan{Table: "t"}}},
		&Mutation{Op: "insert", Table: "customers", Rows: 2},
		&Mutation{Op: "update", Table: "customers", Child: &Filter{Pred: expr.Cmp{Col: "id", Op: expr.OpEq, Val: value.Int(1)}, Child: eq}},
		&Mutation{Op: "delete", Table: "customers", Child: &SeqScan{Table: "customers"}},
		&Mutation{Op: "merge", Table: "customers"},
		explainFixture(),
	} {
		checkExplain(t, n)
	}
	g := &planGen{r: rand.New(rand.NewSource(7))}
	for i := 0; i < 2000; i++ {
		checkExplain(t, g.tree(1+g.r.Intn(6)))
	}
}

// explainFixture is the plan shape a one-shot mining query takes: a
// projection over the post-filter (a three-disjunct OR), the prediction
// join, and an index union the envelope turned the scan into.
func explainFixture() Node {
	disjunct := func(age int64, class string) expr.Expr {
		return expr.And{Kids: []expr.Expr{
			expr.Cmp{Col: "age", Op: expr.OpGe, Val: value.Int(age)},
			expr.Cmp{Col: "m.risk", Op: expr.OpEq, Val: value.Str(class)},
		}}
	}
	return &Project{
		Cols: []string{"id", "age", "m.risk"},
		Child: &Filter{
			Pred: expr.Or{Kids: []expr.Expr{disjunct(30, "vip"), disjunct(50, "regular"), disjunct(70, "budget")}},
			Child: &Predict{
				Model: "risk_tree", As: "m.risk", Version: 3,
				Child: &IndexUnion{Table: "customers", Seeks: []*IndexSeek{
					{Table: "customers", Index: "ix_age_income", EqVals: []value.Value{value.Int(8)}},
					{Table: "customers", Index: "ix_age_income", EqVals: []value.Value{value.Int(9)},
						Range: interval.Above(value.Int(2), true).Intersect(interval.Below(value.Int(6), false))},
				}},
			},
		},
	}
}

// TestAllocExplainOneString: rendering a plan's text allocates the
// string it returns and nothing else; the scratch it renders into is
// recycled.
func TestAllocExplainOneString(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := explainFixture()
	var sink string
	if a := testing.AllocsPerRun(100, func() { sink = Explain(n) }); a != 1 {
		t.Errorf("Explain: %v allocations, want 1", a)
	}
	if sink != oracleExplain(n) {
		t.Fatalf("Explain:\n%s\noracle:\n%s", sink, oracleExplain(n))
	}
}

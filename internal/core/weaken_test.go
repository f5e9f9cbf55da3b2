package core

import (
	"math/rand"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// projectToData is how the data predicate was derived before Weaken,
// kept as its oracle: in each DNF disjunct, atoms referencing
// prediction columns are dropped (weakening a conjunction is sound).
// Past maxDisjuncts it gives up with TRUE.
func projectToData(e expr.Expr, pc PredCols, maxDisjuncts int) expr.Expr {
	d, ok := expr.ToDNF(e, maxDisjuncts)
	if !ok {
		return expr.TrueExpr{}
	}
	isData := func(col string) bool {
		_, isPred := pc.Model(col)
		return !isPred
	}
	var disjuncts []expr.Expr
	for _, c := range d.Disjuncts {
		var keep []expr.Expr
		for _, cond := range c.Conds {
			switch x := cond.(type) {
			case expr.Cmp:
				if isData(x.Col) {
					keep = append(keep, cond)
				}
			case expr.In:
				if isData(x.Col) {
					keep = append(keep, cond)
				}
			case expr.ColCmp:
				if isData(x.ColA) && isData(x.ColB) {
					keep = append(keep, cond)
				}
			default:
				keep = append(keep, cond)
			}
		}
		disjuncts = append(disjuncts, expr.NewAnd(keep...))
	}
	out := expr.NewOr(disjuncts...)
	if s, ok := expr.Simplify(out, maxDisjuncts); ok {
		return s
	}
	return out
}

// weakenBudget is the disjunct budget of both rewrites and the oracle:
// small enough that an augmented WHERE of depth 4 passes it now and then
// (68 of 5,000 random ones).
const weakenBudget = 16

// weakenFrom joins both fixture models, fans twice, so every mining-atom
// shape of the rule table has columns to use.
const weakenFrom = "SELECT id FROM customers" +
	" PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income" +
	" PREDICTION JOIN fans AS n ON n.age = customers.age AND n.income = customers.income" +
	" PREDICTION JOIN risk AS r ON r.age = customers.age AND r.income = customers.income"

// FuzzWeakenMatchesDNF decodes a WHERE over the rewrite fixture and
// holds both rewrites' data predicates to projectToData of their full
// predicates:
//   - with envelopes, within the budget, the two are the same node for
//     node, since the full predicate is then a normal form without a NOT;
//   - on the baseline path, within the budget, they select the same rows,
//     NULLs included. Their forms may differ: a NOT over a subtree that
//     mixes data and mining atoms weakens before it is distributed;
//   - on both paths, over the budget too, where the oracle gives TRUE,
//     the data predicate holds on every row the WHERE holds on, the
//     models' own predictions filling the prediction columns, NULL
//     model inputs included: a model that reads one predicts NULL.
func FuzzWeakenMatchesDNF(f *testing.F) {
	f.Add([]byte{4, 5, 0, 4, 1, 6, 2, 0, 0, 7, 2, 1})
	f.Add([]byte{6, 2, 4, 8, 1, 0, 1, 5, 4, 2, 1, 3, 7, 1, 3, 0})
	r := rand.New(rand.NewSource(52))
	for range 200 {
		seed := make([]byte, 8+r.Intn(40))
		r.Read(seed)
		f.Add(seed)
	}
	fx := newRewriteFixture(f)
	from, err := sqlparse.Parse(weakenFrom)
	if err != nil {
		f.Fatal(err)
	}
	pc, err := ResolvePredCols(from, fx.cat)
	if err != nil {
		f.Fatal(err)
	}
	schema, err := PostPredictSchema(from, fx.cat, fx.schema)
	if err != nil {
		f.Fatal(err)
	}
	rows := weakenRows(f, fx, from)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // a longer input only makes a bigger tree of the same shapes
		}
		q := *from
		q.Where = (&whereDecoder{data: data}).tree(4)
		rw, err := RewriteQuery(&q, fx.cat, weakenBudget)
		if err != nil {
			t.Fatal(err)
		}
		base, err := BaselineRewrite(&q, fx.cat, weakenBudget)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := expr.Simplify(rw.FullPred, weakenBudget); ok {
			if want := projectToData(rw.FullPred, pc, weakenBudget); !expr.Same(rw.DataPred, want) {
				t.Fatalf("WHERE %s\nfull %s\nDataPred %s, oracle %s", q.Where, rw.FullPred, rw.DataPred, want)
			}
		}
		_, within := expr.ToDNF(base.FullPred, weakenBudget)
		oracle := projectToData(base.FullPred, pc, weakenBudget)
		for _, row := range rows {
			if got := base.DataPred.Eval(schema, row); within && got != oracle.Eval(schema, row) {
				t.Fatalf("WHERE %s\nrow %v: baseline DataPred %s is %v, oracle %s is not", q.Where, row, base.DataPred, got, oracle)
			}
			if !q.Where.Eval(schema, row) {
				continue
			}
			for _, w := range []*Rewrite{rw, base} {
				if !w.DataPred.Eval(schema, row) {
					t.Fatalf("WHERE %s\nrow %v holds, DataPred %s does not", q.Where, row, w.DataPred)
				}
			}
		}
	})
}

// weakenRows is every row over small domains of the fixture's base
// columns, NULL in each, extended with the predictions of q's joins.
func weakenRows(tb testing.TB, fx *rewriteFixture, q *sqlparse.Query) []value.Tuple {
	ints := func(vs ...int64) []value.Value {
		out := []value.Value{value.Null()}
		for _, v := range vs {
			out = append(out, value.Int(v))
		}
		return out
	}
	var binds []mining.Binding
	for _, j := range q.Joins {
		me, _ := fx.cat.Model(j.Model)
		b, ok := mining.Bind(me.Model, fx.schema)
		if !ok {
			tb.Fatalf("model %s does not bind to the fixture table", j.Model)
		}
		binds = append(binds, b)
	}
	var rows []value.Tuple
	for _, id := range ints(0, 2, 4) {
		for _, age := range ints(0, 1, 2, 3, 4) {
			for _, income := range ints(0, 1, 2, 3) {
				for _, seg := range []value.Value{value.Null(), value.Str("fan"), value.Str("hi"), value.Str("a")} {
					row := value.Tuple{id, age, income, seg}
					for _, b := range binds {
						row = append(row, b.Predict(row[:fx.schema.Len()]))
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}

var (
	weakenDataCols = []string{"id", "age", "income", "segment"}
	weakenPredCols = []string{"m.segment_pred", "n.segment_pred", "r.risk"}
	weakenValues   = []value.Value{
		value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4),
		value.Str("fan"), value.Str("casual"), value.Str("hi"), value.Str("lo"), value.Str("a"),
	}
)

// whereDecoder reads a WHERE over weakenFrom's columns from bytes; past
// the end it reads zeros, which make data atoms.
type whereDecoder struct{ data []byte }

func (d *whereDecoder) pick(n int) int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b) % n
}

func (d *whereDecoder) tree(depth int) expr.Expr {
	k := d.pick(8)
	if depth == 0 || k < 4 {
		return d.atom()
	}
	if k == 4 {
		return expr.Not{Kid: d.tree(depth - 1)}
	}
	kids := make([]expr.Expr, 1+d.pick(3))
	for i := range kids {
		kids[i] = d.tree(depth - 1)
	}
	if k < 7 {
		return expr.And{Kids: kids}
	}
	return expr.Or{Kids: kids}
}

// atom decodes a data atom (a comparison, an IN or two data columns
// compared) or a mining atom: a prediction column compared with a label
// by any operator, so = and <> have envelopes and the rest none, an IN
// over labels, two prediction columns equated, or one equated with a
// data column.
func (d *whereDecoder) atom() expr.Expr {
	data := func() string { return weakenDataCols[d.pick(len(weakenDataCols))] }
	pred := func() string { return weakenPredCols[d.pick(len(weakenPredCols))] }
	val := func() value.Value { return weakenValues[d.pick(len(weakenValues))] }
	vals := func() []value.Value {
		vs := make([]value.Value, 1+d.pick(3))
		for i := range vs {
			vs[i] = val()
		}
		return vs
	}
	switch d.pick(8) {
	case 0, 1:
		return expr.Cmp{Col: data(), Op: expr.CmpOp(d.pick(6)), Val: val()}
	case 2:
		return expr.In{Col: data(), Vals: vals()}
	case 3:
		return expr.ColCmp{ColA: data(), Op: expr.CmpOp(d.pick(6)), ColB: data()}
	case 4:
		return expr.Cmp{Col: pred(), Op: expr.CmpOp(d.pick(6)), Val: val()}
	case 5:
		return expr.In{Col: pred(), Vals: vals()}
	case 6:
		return expr.ColCmp{ColA: pred(), Op: expr.OpEq, ColB: pred()}
	}
	if d.pick(2) == 0 {
		return expr.ColCmp{ColA: pred(), Op: expr.OpEq, ColB: data()}
	}
	return expr.ColCmp{ColA: data(), Op: expr.OpEq, ColB: pred()}
}

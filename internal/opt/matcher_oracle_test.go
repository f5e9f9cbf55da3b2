package opt

// The access-path matcher as it was first written, four maps and a
// lowercased copy of every column name per disjunct, kept as the oracle
// the slice-based one is checked against: the same rewritten conjuncts,
// the same seeks and the same estimates, on random conjuncts. It has one
// change: the IN expansion of a closed integer range is for INT columns
// only, as it dropped a FLOAT column's fractional values.

import (
	"math"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/stats"
	"minequery/internal/value"
)

// oracleIntBounds tightens fractional range bounds over INT columns: for an
// integer x, "x >= 1.9" is "x >= 2" and "x < 2.6" is "x <= 2". Sound by
// the column's declared type; it turns the float cut points of
// clustering envelopes into integer ranges the IN-expansion can use.
func oracleIntBounds(t *catalog.Table, c expr.Conjunct) expr.Conjunct {
	out := make([]expr.Expr, len(c.Conds))
	for i, cond := range c.Conds {
		out[i] = cond
		cmp, ok := cond.(expr.Cmp)
		if !ok || cmp.Val.Kind() != value.KindFloat {
			continue
		}
		o := t.Schema.Ordinal(cmp.Col)
		if o < 0 || t.Schema.Col(o).Kind != value.KindInt {
			continue
		}
		f := cmp.Val.AsFloat()
		switch cmp.Op {
		case expr.OpGe:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpGe, Val: value.Int(int64(math.Ceil(f)))}
		case expr.OpGt:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpGe, Val: value.Int(int64(math.Floor(f)) + 1)}
		case expr.OpLe:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpLe, Val: value.Int(int64(math.Floor(f)))}
		case expr.OpLt:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpLe, Val: value.Int(int64(math.Ceil(f)) - 1)}
		}
	}
	return expr.Conjunct{Conds: out}
}

// oracleRangeToIn rewrites closed integer ranges into IN conditions: a range
// like 2 <= col <= 4 over INT values becomes col IN (2,3,4), which the
// composite-index matcher can use as an equality prefix. The expansion
// enumerates the integers in the range itself — no statistics involved —
// so it is sound regardless of data changes. Open and non-integer
// ranges are left alone.
func oracleRangeToIn(t *catalog.Table, c expr.Conjunct, cfg Config) expr.Conjunct {
	simplified, sat := expr.SimplifyConjunct(c.Conds)
	if !sat {
		return c
	}
	type colRange struct {
		col string
		iv  interval.Interval
	}
	ranges := map[string]*colRange{}
	var order []string
	var passthrough []expr.Expr
	for _, cond := range simplified {
		cmp, ok := cond.(expr.Cmp)
		iv, bounded := cmp.Interval()
		if !ok || !bounded || cmp.Op == expr.OpEq {
			passthrough = append(passthrough, cond)
			continue
		}
		key := norm(cmp.Col)
		r := ranges[key]
		if r == nil {
			r = &colRange{col: cmp.Col}
			ranges[key] = r
			order = append(order, key)
		}
		r.iv = r.iv.Intersect(iv)
	}
	out := append([]expr.Expr(nil), passthrough...)
	for _, key := range order {
		r := ranges[key]
		vals, ok := enumerateIntRange(r.iv, cfg.MaxInExpansion)
		if o := t.Schema.Ordinal(r.col); o < 0 || t.Schema.Col(o).Kind != value.KindInt {
			vals, ok = nil, false // the one change: INT columns only
		}
		switch {
		case ok && len(vals) == 0:
			out = append(out, expr.FalseExpr{})
		case ok && len(vals) == 1:
			out = append(out, expr.Cmp{Col: r.col, Op: expr.OpEq, Val: vals[0]})
		case ok:
			out = append(out, expr.In{Col: r.col, Vals: vals})
		default:
			out = append(out, expr.AppendRangeConds(nil, r.col, r.iv, nil)...)
		}
	}
	return expr.Conjunct{Conds: out}
}

// oracleCandidate is the seek set serving one disjunct through one index.
type oracleCandidate struct {
	seeks   []*plan.IndexSeek
	estRows float64
}

// oracleBestSeeks finds the cheapest index application for one conjunct, or
// nil if no index is usable.
func oracleBestSeeks(t *catalog.Table, ts *stats.TableStats, c expr.Conjunct, cfg Config) *oracleCandidate {
	// Bucket the conjunct's conditions per column.
	eq := map[string]value.Value{}
	in := map[string][]value.Value{}
	rng := map[string]interval.Interval{}
	var consumedExpr = map[string][]expr.Expr{}
	for _, cond := range c.Conds {
		switch x := cond.(type) {
		case expr.Cmp:
			col := norm(x.Col)
			switch x.Op {
			case expr.OpEq:
				eq[col] = x.Val
				consumedExpr[col] = append(consumedExpr[col], x)
			case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
				iv, _ := x.Interval()
				rng[col] = rng[col].Intersect(iv)
				consumedExpr[col] = append(consumedExpr[col], x)
			}
		case expr.In:
			col := norm(x.Col)
			if len(x.Vals) <= cfg.MaxInExpansion {
				in[col] = x.Vals
				consumedExpr[col] = append(consumedExpr[col], x)
			}
		}
	}

	var best *oracleCandidate
	bestCost := inf
	for _, ix := range t.Indexes() {
		cand := oracleMatchIndex(t, ts, ix, eq, in, rng, consumedExpr, cfg)
		if cand == nil {
			continue
		}
		cost := cand.estRows*cfg.RandomPageCost + float64(len(cand.seeks))*seekProbeCost
		if cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	return best
}

// oracleMatchIndex matches a conjunct's per-column conditions against one
// index's column order: an equality (or small IN) prefix, optionally
// followed by one range column.
func oracleMatchIndex(t *catalog.Table, ts *stats.TableStats, ix *catalog.Index,
	eq map[string]value.Value, in map[string][]value.Value,
	rng map[string]interval.Interval, consumed map[string][]expr.Expr, cfg Config) *oracleCandidate {

	type prefixAlt struct {
		vals []value.Value
	}
	alts := []prefixAlt{{}}
	var sargable []expr.Expr
	var seekRange interval.Interval
	matchedAny := false

	for _, col := range ix.Columns {
		cn := norm(col)
		if v, ok := eq[cn]; ok {
			for i := range alts {
				alts[i].vals = append(alts[i].vals, v)
			}
			sargable = append(sargable, consumed[cn]...)
			matchedAny = true
			continue
		}
		if vals, ok := in[cn]; ok && len(alts)*len(vals) <= cfg.MaxInExpansion {
			// IN consumes the column as equality alternatives; the
			// prefix continues through it while total seek fan-out stays
			// within budget.
			var next []prefixAlt
			for _, a := range alts {
				for _, v := range vals {
					nv := make([]value.Value, len(a.vals), len(a.vals)+1)
					copy(nv, a.vals)
					next = append(next, prefixAlt{vals: append(nv, v)})
				}
			}
			alts = next
			sargable = append(sargable, consumed[cn]...)
			matchedAny = true
			continue
		}
		if iv, ok := rng[cn]; ok {
			seekRange = iv
			sargable = append(sargable, consumed[cn]...)
			matchedAny = true
		}
		break // first non-equality column ends the prefix
	}
	if !matchedAny {
		return nil
	}
	seeks := make([]*plan.IndexSeek, 0, len(alts))
	for _, a := range alts {
		seeks = append(seeks, &plan.IndexSeek{
			Table:  t.Name,
			Index:  ix.Name,
			EqVals: a.vals,
			Range:  seekRange,
		})
	}
	selPart := ts.Selectivity(expr.NewAnd(sargable...))
	rows := selPart * float64(t.Heap.Len())
	return &oracleCandidate{seeks: seeks, estRows: rows}
}

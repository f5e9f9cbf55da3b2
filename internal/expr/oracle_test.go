package expr

import (
	"minequery/internal/interval"
	"minequery/internal/value"
)

// The normal forms as they were first written, kept as the oracle the
// structural ones are checked against: an NNF tree built through
// NewAnd/NewOr, a distribution that merges copies, per-column state in a
// map, and absorption over sets keyed by rendered atoms. Every exported
// result (ToDNF, Simplify, SimplifyConjunct) must equal its oracle twin
// node for node.

func oracleToDNF(e Expr, maxDisjuncts int) (d DNF, ok bool) {
	n := oracleToNNF(e, false)
	lists, ok := oracleDistribute(n, maxDisjuncts)
	if !ok {
		return DNF{}, false
	}
	d = DNF{Disjuncts: make([]Conjunct, 0, len(lists))}
	for _, l := range lists {
		d.Disjuncts = append(d.Disjuncts, Conjunct{Conds: l})
	}
	return d, true
}

func oracleToNNF(e Expr, neg bool) Expr {
	switch x := e.(type) {
	case TrueExpr:
		if neg {
			return FalseExpr{}
		}
		return x
	case FalseExpr:
		if neg {
			return TrueExpr{}
		}
		return x
	case Cmp:
		if neg {
			return Cmp{Col: x.Col, Op: x.Op.Negate(), Val: x.Val}
		}
		return x
	case ColCmp:
		if neg {
			return ColCmp{ColA: x.ColA, Op: x.Op.Negate(), ColB: x.ColB}
		}
		return x
	case In:
		if !neg {
			return x
		}
		kids := make([]Expr, len(x.Vals))
		for i, v := range x.Vals {
			kids[i] = Cmp{Col: x.Col, Op: OpNe, Val: v}
		}
		return oracleNewAnd(kids...)
	case Not:
		return oracleToNNF(x.Kid, !neg)
	case And:
		kids := make([]Expr, len(x.Kids))
		for i, k := range x.Kids {
			kids[i] = oracleToNNF(k, neg)
		}
		if neg {
			return oracleNewOr(kids...)
		}
		return oracleNewAnd(kids...)
	case Or:
		kids := make([]Expr, len(x.Kids))
		for i, k := range x.Kids {
			kids[i] = oracleToNNF(k, neg)
		}
		if neg {
			return oracleNewAnd(kids...)
		}
		return oracleNewOr(kids...)
	}
	return e
}

func oracleDistribute(e Expr, max int) ([][]Expr, bool) {
	switch x := e.(type) {
	case TrueExpr:
		return [][]Expr{{}}, true
	case FalseExpr:
		return nil, true
	case Cmp, In, ColCmp:
		return [][]Expr{{e}}, true
	case Or:
		var out [][]Expr
		for _, k := range x.Kids {
			sub, ok := oracleDistribute(k, max)
			if !ok {
				return nil, false
			}
			out = append(out, sub...)
			if max > 0 && len(out) > max {
				return nil, false
			}
		}
		return out, true
	case And:
		out := [][]Expr{{}}
		for _, k := range x.Kids {
			sub, ok := oracleDistribute(k, max)
			if !ok {
				return nil, false
			}
			var next [][]Expr
			for _, a := range out {
				for _, b := range sub {
					merged := make([]Expr, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
					if max > 0 && len(next) > max {
						return nil, false
					}
				}
			}
			out = next
		}
		return out, true
	}
	return [][]Expr{{e}}, true
}

type oracleColState struct {
	hasEq bool
	eq    []value.Value
	rng   interval.Interval
	ne    []value.Value
}

func (cs *oracleColState) intersectEq(vals []value.Value) {
	if !cs.hasEq {
		cs.hasEq = true
		cs.eq = append([]value.Value(nil), vals...)
		return
	}
	var keep []value.Value
	for _, v := range cs.eq {
		if hasValue(vals, v) {
			keep = append(keep, v)
		}
	}
	cs.eq = keep
}

func oracleSimplifyConjunct(conds []Expr) ([]Expr, bool) {
	states := map[string]*oracleColState{}
	order := []string{}
	var opaque []Expr
	get := func(col string) *oracleColState {
		if st, ok := states[col]; ok {
			return st
		}
		st := &oracleColState{}
		states[col] = st
		order = append(order, col)
		return st
	}
	for _, c := range conds {
		switch x := c.(type) {
		case Cmp:
			if x.Val.IsNull() {
				return nil, false
			}
			st := get(x.Col)
			switch x.Op {
			case OpEq:
				st.intersectEq([]value.Value{x.Val})
			case OpNe:
				st.ne = append(st.ne, x.Val)
			default:
				iv, _ := x.Interval()
				st.rng = st.rng.Intersect(iv)
			}
		case In:
			if len(x.Vals) == 0 {
				return nil, false
			}
			get(x.Col).intersectEq(x.Vals)
		case TrueExpr:
		case FalseExpr:
			return nil, false
		default:
			opaque = append(opaque, c)
		}
	}
	var out []Expr
	for _, col := range order {
		st := states[col]
		cs, ok := st.emit(col)
		if !ok {
			return nil, false
		}
		out = append(out, cs...)
	}
	out = append(out, opaque...)
	return out, true
}

func (cs *oracleColState) emit(col string) ([]Expr, bool) {
	if cs.hasEq {
		var keep []value.Value
		for _, v := range cs.eq {
			if !v.IsNull() && cs.rng.Contains(v) && !hasValue(cs.ne, v) {
				keep = append(keep, v)
			}
		}
		keep = interval.NewCuts(keep)
		switch len(keep) {
		case 0:
			return nil, false
		case 1:
			return []Expr{Cmp{Col: col, Op: OpEq, Val: keep[0]}}, true
		default:
			return []Expr{In{Col: col, Vals: keep}}, true
		}
	}
	if cs.rng.Empty() {
		return nil, false
	}
	if cs.rng.IsPoint() {
		v, _, _ := cs.rng.Lo()
		if hasValue(cs.ne, v) {
			return nil, false
		}
		return []Expr{Cmp{Col: col, Op: OpEq, Val: v}}, true
	}
	out := oracleRangeConds(col, cs.rng)
	for _, n := range interval.NewCuts(cs.ne) {
		if cs.rng.Contains(n) {
			out = append(out, Cmp{Col: col, Op: OpNe, Val: n})
		}
	}
	return out, true
}

func oracleSimplify(e Expr, maxDisjuncts int) (Expr, bool) {
	d, ok := oracleToDNF(e, maxDisjuncts)
	if !ok {
		return e, false
	}
	var kept []Conjunct
	for _, c := range d.Disjuncts {
		conds, sat := oracleSimplifyConjunct(c.Conds)
		if !sat {
			continue
		}
		if len(conds) == 0 {
			return TrueExpr{}, true
		}
		kept = append(kept, Conjunct{Conds: conds})
	}
	kept = oracleAbsorb(kept)
	ors := make([]Expr, len(kept))
	for i, c := range kept {
		ors[i] = oracleNewAnd(c.Conds...)
	}
	return oracleNewOr(ors...), true
}

func oracleAbsorb(disjuncts []Conjunct) []Conjunct {
	sets := make([]map[string]bool, len(disjuncts))
	for i, d := range disjuncts {
		s := map[string]bool{}
		for _, c := range d.Conds {
			s[c.String()] = true
		}
		sets[i] = s
	}
	redundant := make([]bool, len(disjuncts))
	for i := range disjuncts {
		if redundant[i] {
			continue
		}
		for j := range disjuncts {
			if i == j || redundant[j] {
				continue
			}
			if oracleIsSubset(sets[i], sets[j]) {
				if len(sets[i]) == len(sets[j]) && j < i {
					continue
				}
				redundant[j] = true
			}
		}
	}
	var out []Conjunct
	for i, d := range disjuncts {
		if !redundant[i] {
			out = append(out, d)
		}
	}
	return out
}

func oracleIsSubset(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func oracleNewAnd(kids ...Expr) Expr {
	var flat []Expr
	for _, k := range kids {
		switch kk := k.(type) {
		case TrueExpr:
		case FalseExpr:
			return FalseExpr{}
		case And:
			flat = append(flat, kk.Kids...)
		default:
			flat = append(flat, k)
		}
	}
	switch len(flat) {
	case 0:
		return TrueExpr{}
	case 1:
		return flat[0]
	}
	return And{Kids: flat}
}

func oracleNewOr(kids ...Expr) Expr {
	var flat []Expr
	for _, k := range kids {
		switch kk := k.(type) {
		case FalseExpr:
		case TrueExpr:
			return TrueExpr{}
		case Or:
			flat = append(flat, kk.Kids...)
		default:
			flat = append(flat, k)
		}
	}
	switch len(flat) {
	case 0:
		return FalseExpr{}
	case 1:
		return flat[0]
	}
	return Or{Kids: flat}
}

func oracleRangeConds(col string, iv interval.Interval) []Expr {
	out := make([]Expr, 0, 2)
	if v, inc, ok := iv.Lo(); ok {
		op := OpGt
		if inc {
			op = OpGe
		}
		out = append(out, Cmp{Col: col, Op: op, Val: v})
	}
	if v, inc, ok := iv.Hi(); ok {
		op := OpLt
		if inc {
			op = OpLe
		}
		out = append(out, Cmp{Col: col, Op: op, Val: v})
	}
	return out
}

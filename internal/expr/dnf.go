package expr

import (
	"minequery/internal/interval"
	"minequery/internal/value"
)

// ErrTooManyDisjuncts is reported (as ok=false) by ToDNF when the
// normalized form would exceed the caller's disjunct budget. Section 4.2
// of the paper thresholds the number of disjuncts so that the optimizer
// is not misguided by overly complex AND/OR expressions.

// Conjunct is a conjunction of atomic conditions (Cmp or In).
type Conjunct struct {
	Conds []Expr
}

// Expr renders the conjunct back as an expression.
func (c Conjunct) Expr() Expr { return NewAnd(c.Conds...) }

// DNF is a disjunction of conjuncts. No disjuncts means FALSE; a conjunct
// with no conditions means TRUE.
type DNF struct {
	Disjuncts []Conjunct
}

// Expr renders the DNF back as an expression.
func (d DNF) Expr() Expr {
	kids := make([]Expr, len(d.Disjuncts))
	for i, c := range d.Disjuncts {
		kids[i] = c.Expr()
	}
	return NewOr(kids...)
}

// ToDNF converts e to disjunctive normal form, pushing negation down to
// atoms and distributing AND over OR. maxDisjuncts caps the expansion
// (<=0 means unlimited); if the cap would be exceeded, ok is false and
// the returned DNF is not meaningful.
func ToDNF(e Expr, maxDisjuncts int) (d DNF, ok bool) {
	n := toNNF(e, false)
	lists, ok := distribute(n, maxDisjuncts)
	if !ok {
		return DNF{}, false
	}
	d = DNF{Disjuncts: make([]Conjunct, 0, len(lists))}
	for _, l := range lists {
		d.Disjuncts = append(d.Disjuncts, Conjunct{Conds: l})
	}
	return d, true
}

// toNNF pushes negations down to the atoms. neg tracks whether we are
// under an odd number of NOTs. IN under negation is expanded into a
// conjunction of <> conditions so all atoms are Cmp or In.
func toNNF(e Expr, neg bool) Expr {
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
		return NewAnd(kids...)
	case Not:
		return toNNF(x.Kid, !neg)
	case And:
		kids := make([]Expr, len(x.Kids))
		for i, k := range x.Kids {
			kids[i] = toNNF(k, neg)
		}
		if neg {
			return NewOr(kids...)
		}
		return NewAnd(kids...)
	case Or:
		kids := make([]Expr, len(x.Kids))
		for i, k := range x.Kids {
			kids[i] = toNNF(k, neg)
		}
		if neg {
			return NewAnd(kids...)
		}
		return NewOr(kids...)
	}
	return e
}

// distribute returns the DNF of an NNF expression as a list of conjunct
// condition lists.
func distribute(e Expr, max int) ([][]Expr, bool) {
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
			sub, ok := distribute(k, max)
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
			sub, ok := distribute(k, max)
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
	// Unknown node (should not happen after toNNF): treat as opaque atom.
	return [][]Expr{{e}}, true
}

// colState accumulates all constraints on one column within a conjunct.
type colState struct {
	hasEq bool
	eq    []value.Value // intersection of = / IN constraints
	rng   interval.Interval
	ne    []value.Value
}

func (cs *colState) intersectEq(vals []value.Value) {
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

func hasValue(vals []value.Value, v value.Value) bool {
	for _, w := range vals {
		if value.Equal(v, w) {
			return true
		}
	}
	return false
}

// SimplifyConjunct canonicalizes the atomic conditions of one conjunct:
// per-column constraints are intersected, ranges tightened, IN lists
// filtered, duplicates removed. The second result is false if the
// conjunct is contradictory (always false).
func SimplifyConjunct(conds []Expr) ([]Expr, bool) {
	states := map[string]*colState{}
	order := []string{}
	var opaque []Expr
	get := func(col string) *colState {
		if st, ok := states[col]; ok {
			return st
		}
		st := &colState{}
		states[col] = st
		order = append(order, col)
		return st
	}
	for _, c := range conds {
		switch x := c.(type) {
		case Cmp:
			if x.Val.IsNull() {
				// Comparisons with NULL are always false.
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

// emit produces the canonical conditions for one column's state.
func (cs *colState) emit(col string) ([]Expr, bool) {
	if cs.hasEq {
		var keep []value.Value
		for _, v := range cs.eq {
			if cs.rng.Contains(v) && !hasValue(cs.ne, v) {
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
	out := RangeConds(col, cs.rng)
	for _, n := range interval.NewCuts(cs.ne) {
		// Keep only <> values that are inside the range; others are
		// implied by the range itself.
		if cs.rng.Contains(n) {
			out = append(out, Cmp{Col: col, Op: OpNe, Val: n})
		}
	}
	return out, true
}

// Simplify normalizes e: converts to DNF (bounded by maxDisjuncts, <=0
// unlimited), simplifies each conjunct, drops contradictory disjuncts,
// removes duplicate and absorbed disjuncts, and rebuilds the expression.
// If DNF conversion exceeds the budget, e is returned unchanged with
// ok=false.
func Simplify(e Expr, maxDisjuncts int) (Expr, bool) {
	d, ok := ToDNF(e, maxDisjuncts)
	if !ok {
		return e, false
	}
	var kept []Conjunct
	for _, c := range d.Disjuncts {
		conds, sat := SimplifyConjunct(c.Conds)
		if !sat {
			continue
		}
		if len(conds) == 0 {
			return TrueExpr{}, true
		}
		kept = append(kept, Conjunct{Conds: conds})
	}
	kept = absorb(kept)
	return DNF{Disjuncts: kept}.Expr(), true
}

// absorb removes duplicate disjuncts and disjuncts subsumed by a more
// general one (if disjunct A's atom set is a subset of B's, then B
// implies A and B can be dropped).
func absorb(disjuncts []Conjunct) []Conjunct {
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
			if isSubset(sets[i], sets[j]) {
				// i is weaker (or equal): j is redundant. Break equal-set
				// ties by keeping the earlier disjunct.
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

func isSubset(a, b map[string]bool) bool {
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

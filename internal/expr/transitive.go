package expr

import (
	"minequery/internal/interval"
	"minequery/internal/value"
)

// ImpliedDomain computes the finite set of values the named column can
// take in any tuple satisfying e, if such a finite set is implied. It
// returns (values, true) when every disjunct of e constrains col to a
// finite set of values (via = or IN), and (nil, false) otherwise.
//
// This implements the transitivity rule of Section 4.1: if the query
// constrains T.Data_column to a finite domain and also contains
// M.Prediction_column = T.Data_column, then the prediction column is
// limited to the same domain and an IN-predicate envelope applies.
func ImpliedDomain(e Expr, col string) ([]value.Value, bool) {
	d, ok := ToDNF(e, 256)
	if !ok {
		return nil, false
	}
	if len(d.Disjuncts) == 0 {
		// FALSE implies the empty domain.
		return nil, true
	}
	var union []value.Value
	for _, c := range d.Disjuncts {
		conds, sat := SimplifyConjunct(c.Conds)
		if !sat {
			continue
		}
		found := false
		for _, cond := range conds {
			switch x := cond.(type) {
			case Cmp:
				if x.Op == OpEq && equalFold(x.Col, col) {
					union = append(union, x.Val)
					found = true
				}
			case In:
				if equalFold(x.Col, col) {
					union = append(union, x.Vals...)
					found = true
				}
			}
		}
		if !found {
			return nil, false
		}
	}
	return interval.NewCuts(union), true
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Implies reports whether conjunct p (a set of atomic conditions) implies
// atomic condition q, using simple per-column interval reasoning: it
// checks that adding NOT(q) to p yields a contradiction. Only Cmp and In
// atoms participate; anything else makes the result false (unknown).
func Implies(p []Expr, q Expr) bool {
	negated := toNNF(Not{Kid: q}, false)
	// NOT(IN) expands to a conjunction of <>; NOT(Cmp) is a single Cmp.
	var extra []Expr
	switch n := negated.(type) {
	case And:
		extra = n.Kids
	default:
		extra = []Expr{negated}
	}
	all := make([]Expr, 0, len(p)+len(extra))
	all = append(all, p...)
	all = append(all, extra...)
	_, sat := SimplifyConjunct(all)
	return !sat
}

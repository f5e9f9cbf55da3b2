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
	all := make([]Expr, len(p), len(p)+1)
	copy(all, p)
	_, sat := SimplifyConjunct(appendConjuncts(all, q, true))
	return !sat
}

// appendConjuncts appends to dst what SimplifyConjunct can reason about
// in the negation normal form of e (of NOT e when neg): the atoms it
// conjoins at its top, or FALSE when it collapses to FALSE. NOT (c IN
// (...)) is a <> per value. A disjunction is opaque to SimplifyConjunct
// and left out, unless all its kids but one collapse to FALSE.
func appendConjuncts(dst []Expr, e Expr, neg bool) []Expr {
	switch folded(e, neg) {
	case foldTrue:
		return dst
	case foldFalse:
		return append(dst, FalseExpr{})
	}
	var kids []Expr
	var conj bool
	switch x := e.(type) {
	case Not:
		return appendConjuncts(dst, x.Kid, !neg)
	case And:
		kids, conj = x.Kids, !neg
	case Or:
		kids, conj = x.Kids, neg
	default:
		return appendAtom(dst, e, neg)
	}
	if conj {
		for _, k := range kids {
			dst = appendConjuncts(dst, k, neg)
		}
		return dst
	}
	var only Expr
	for _, k := range kids {
		if folded(k, neg) != foldFalse {
			if only != nil {
				return dst
			}
			only = k
		}
	}
	return appendConjuncts(dst, only, neg)
}

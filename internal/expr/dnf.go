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
//
// The result is the one NewAnd and NewOr would give for e's negation
// normal form: a subtree that collapses to a constant (an OR with a TRUE
// kid, an AND with a FALSE one) collapses before it is distributed, and
// never counts against the budget.
func ToDNF(e Expr, maxDisjuncts int) (d DNF, ok bool) {
	w := distribute(e, maxDisjuncts, false)
	if w.over {
		return DNF{}, false
	}
	if w.out == nil {
		w.out = []Conjunct{} // FALSE
	}
	return DNF{Disjuncts: w.out}, true
}

// distribute walks e into its disjunctive normal form, simplifying each
// conjunct as it is found when simplify.
func distribute(e Expr, max int, simplify bool) distribution {
	var cur [8]Expr
	var rest [8]pending
	w := distribution{max: max, simplify: simplify}
	w.conj(e, false, cur[:0], rest[:0])
	return w
}

// fold is what a subtree's negation normal form collapses to.
type fold uint8

const (
	foldOpen fold = iota
	foldTrue
	foldFalse
)

// folded reports what e (NOT e when neg) collapses to when its negation
// normal form is built through NewAnd and NewOr: an AND with a FALSE kid
// is FALSE and one whose kids are all TRUE is TRUE, an OR the other way
// round, and NOT (c IN ()) is the empty AND.
func folded(e Expr, neg bool) fold {
	switch x := e.(type) {
	case TrueExpr:
		if neg {
			return foldFalse
		}
		return foldTrue
	case FalseExpr:
		if neg {
			return foldTrue
		}
		return foldFalse
	case In:
		if neg && len(x.Vals) == 0 {
			return foldTrue
		}
	case Not:
		return folded(x.Kid, !neg)
	case And:
		return foldKids(x.Kids, neg, !neg)
	case Or:
		return foldKids(x.Kids, neg, neg)
	}
	return foldOpen
}

// foldKids folds kids, each negated when neg, joined by AND when conj and
// by OR otherwise.
func foldKids(kids []Expr, neg, conj bool) fold {
	absorbing, identity := foldTrue, foldFalse
	if conj {
		absorbing, identity = foldFalse, foldTrue
	}
	all := identity
	for _, k := range kids {
		switch folded(k, neg) {
		case absorbing:
			return absorbing
		case foldOpen:
			all = foldOpen
		}
	}
	return all
}

// distribution builds a DNF depth first: each OR on the way is a choice,
// and a conjunct is emitted once no conjunction is pending, so the
// conjuncts come out in the order distributing AND over OR lists them.
// A step is handed cur, the atoms of the conjunct being built, and rest,
// what is still to be conjoined to it (innermost last); it may write
// past their ends, and leaves what is within them as it found it.
type distribution struct {
	max int
	n   int // conjuncts emitted
	// simplify keeps each conjunct through SimplifyConjunct, dropping
	// the contradictory ones, and marks tautology at the first that
	// simplifies to no conditions: the conjuncts are never copied.
	simplify  bool
	out       []Conjunct
	over      bool // the budget is exceeded
	tautology bool
}

// pending is the kids of an AND still to be conjoined, each negated
// when neg.
type pending struct {
	kids []Expr
	neg  bool
}

// conj conjoins e, negated when neg, to cur, then what rest holds.
func (w *distribution) conj(e Expr, neg bool, cur []Expr, rest []pending) {
	if w.over {
		return
	}
	switch folded(e, neg) {
	case foldTrue:
		w.cont(cur, rest)
		return
	case foldFalse:
		return
	}
	var kids []Expr
	var conj bool
	switch x := e.(type) {
	case Not:
		w.conj(x.Kid, !neg, cur, rest)
		return
	case And:
		kids, conj = x.Kids, !neg
	case Or:
		kids, conj = x.Kids, neg
	default:
		w.cont(appendAtom(cur, e, neg), rest)
		return
	}
	if !conj {
		for _, k := range kids {
			w.conj(k, neg, cur, rest)
		}
		return
	}
	w.conj(kids[0], neg, cur, append(rest, pending{kids: kids[1:], neg: neg}))
}

// cont conjoins what rest holds to cur, and emits cur once nothing is
// pending.
func (w *distribution) cont(cur []Expr, rest []pending) {
	n := len(rest)
	if n == 0 {
		w.emit(cur)
		return
	}
	top := rest[n-1]
	if len(top.kids) == 0 {
		w.cont(cur, rest[:n-1])
		rest[n-1] = top
		return
	}
	rest[n-1].kids = top.kids[1:]
	w.conj(top.kids[0], top.neg, cur, rest)
	rest[n-1] = top
}

// emit adds the conjunct cur holds.
func (w *distribution) emit(cur []Expr) {
	if w.max > 0 && w.n == w.max {
		w.over = true
		return
	}
	w.n++
	if !w.simplify {
		conds := make([]Expr, len(cur))
		copy(conds, cur)
		w.out = append(w.out, Conjunct{Conds: conds})
		return
	}
	if w.tautology {
		return
	}
	if conds, sat := SimplifyConjunct(cur); !sat {
		return
	} else if len(conds) == 0 {
		w.tautology = true
	} else {
		w.out = append(w.out, Conjunct{Conds: conds})
	}
}

// appendAtom appends atom e, or its negation when neg, to dst. A negated
// IN is the conjunction of a <> per value; an atom that is not negated
// is appended as the interface value it came in.
func appendAtom(dst []Expr, e Expr, neg bool) []Expr {
	if !neg {
		return append(dst, e)
	}
	switch x := e.(type) {
	case Cmp:
		return append(dst, Cmp{Col: x.Col, Op: x.Op.Negate(), Val: x.Val})
	case ColCmp:
		return append(dst, ColCmp{ColA: x.ColA, Op: x.Op.Negate(), ColB: x.ColB})
	case In:
		for _, v := range x.Vals {
			dst = append(dst, Cmp{Col: x.Col, Op: OpNe, Val: v})
		}
		return dst
	}
	// An unknown node is kept as an opaque atom.
	return append(dst, e)
}

// colState accumulates all constraints on one column within a conjunct.
// Its = / IN constraints and <> values stay in the conjunct, found again
// by position and column when the column is emitted.
type colState struct {
	col  string
	eqAt int // the conjunct's first = or IN on col, or -1
	rng  interval.Interval
}

// stateOf returns the index of col's state in cols, adding one if col
// is new; cols keeps the order of first mention, which is also the order
// the states emit in.
func stateOf(cols []colState, col string) ([]colState, int) {
	for i := range cols {
		if cols[i].col == col {
			return cols, i
		}
	}
	return append(cols, colState{col: col, eqAt: -1}), len(cols)
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
	// A conjunct names few columns, so their states sit in a slice
	// searched in order.
	var buf [8]colState
	cols := buf[:0]
	for i, c := range conds {
		switch x := c.(type) {
		case Cmp:
			if x.Val.IsNull() {
				// Comparisons with NULL are always false.
				return nil, false
			}
			var at int
			cols, at = stateOf(cols, x.Col)
			st := &cols[at]
			switch x.Op {
			case OpEq:
				if st.eqAt < 0 {
					st.eqAt = i
				}
			case OpNe:
				// Found again in conds when the column emits.
			default:
				iv, _ := x.Interval()
				st.rng = st.rng.Intersect(iv)
			}
		case In:
			if len(x.Vals) == 0 {
				return nil, false
			}
			var at int
			if cols, at = stateOf(cols, x.Col); cols[at].eqAt < 0 {
				cols[at].eqAt = i
			}
		case FalseExpr:
			return nil, false
		}
	}
	out := make([]Expr, 0, len(conds))
	for i := range cols {
		var ok bool
		if out, ok = cols[i].emit(out, conds); !ok {
			return nil, false
		}
	}
	for _, c := range conds {
		switch c.(type) {
		case Cmp, In, TrueExpr:
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, true
	}
	return out, true
}

// emit appends the canonical conditions for one column's state to out;
// ok is false when they contradict each other.
func (cs *colState) emit(out []Expr, conds []Expr) (_ []Expr, ok bool) {
	if cs.eqAt >= 0 {
		// The = / IN constraints intersect to the values of the first
		// that every later one lists; of those, the ones in the range
		// and named by no <> survive.
		first := conds[cs.eqAt]
		n, at := 0, 0
		for i := range eqLen(first) {
			if cs.admits(eqVal(first, i), conds) {
				n, at = n+1, i
			}
		}
		switch n {
		case 0:
			return nil, false
		case 1:
			return appendCmp(out, Cmp{Col: cs.col, Op: OpEq, Val: eqVal(first, at)}, conds), true
		}
		keep := make([]value.Value, 0, n)
		for i := range eqLen(first) {
			if v := eqVal(first, i); cs.admits(v, conds) {
				keep = append(keep, v)
			}
		}
		if keep = interval.NewCuts(keep); len(keep) == 1 {
			return appendCmp(out, Cmp{Col: cs.col, Op: OpEq, Val: keep[0]}, conds), true
		}
		return append(out, In{Col: cs.col, Vals: keep}), true
	}
	if cs.rng.Empty() {
		return nil, false
	}
	if cs.rng.IsPoint() {
		v, _, _ := cs.rng.Lo()
		if cs.excluded(v, conds) {
			return nil, false
		}
		return appendCmp(out, Cmp{Col: cs.col, Op: OpEq, Val: v}, conds), true
	}
	out = AppendRangeConds(out, cs.col, cs.rng, conds)
	// Keep only <> values that are inside the range; others are implied
	// by the range itself.
	var buf [4]value.Value
	ne := buf[:0]
	for _, c := range conds {
		if x, ok := c.(Cmp); ok && x.Op == OpNe && x.Col == cs.col {
			ne = append(ne, x.Val)
		}
	}
	for _, n := range interval.NewCuts(ne) {
		if cs.rng.Contains(n) {
			out = appendCmp(out, Cmp{Col: cs.col, Op: OpNe, Val: n}, conds)
		}
	}
	return out, true
}

// admits reports whether v, a value of the column's first = or IN, is
// not NULL, is in every later one, in the range, and named by no <>. A
// NULL in an IN list matches no row, as a comparison with NULL does.
func (cs *colState) admits(v value.Value, conds []Expr) bool {
	if v.IsNull() || !cs.rng.Contains(v) || cs.excluded(v, conds) {
		return false
	}
	for _, c := range conds[cs.eqAt+1:] {
		switch x := c.(type) {
		case Cmp:
			if x.Op == OpEq && x.Col == cs.col && !value.Equal(v, x.Val) {
				return false
			}
		case In:
			if x.Col == cs.col && !hasValue(x.Vals, v) {
				return false
			}
		}
	}
	return true
}

// excluded reports whether a <> on the column names v.
func (cs *colState) excluded(v value.Value, conds []Expr) bool {
	for _, c := range conds {
		if x, ok := c.(Cmp); ok && x.Op == OpNe && x.Col == cs.col && value.Equal(v, x.Val) {
			return true
		}
	}
	return false
}

// eqLen and eqVal read the values an = (one) or an IN (its list) allows.
func eqLen(c Expr) int {
	if x, ok := c.(In); ok {
		return len(x.Vals)
	}
	return 1
}

func eqVal(c Expr, i int) value.Value {
	if x, ok := c.(In); ok {
		return x.Vals[i]
	}
	return c.(Cmp).Val
}

// Simplify normalizes e: converts to DNF (bounded by maxDisjuncts, <=0
// unlimited), simplifies each conjunct, drops contradictory disjuncts,
// removes duplicate and absorbed disjuncts, and rebuilds the expression.
// If DNF conversion exceeds the budget, e is returned unchanged with
// ok=false.
func Simplify(e Expr, maxDisjuncts int) (Expr, bool) {
	w := distribute(e, maxDisjuncts, true)
	switch {
	case w.over:
		return e, false
	case w.tautology:
		return TrueExpr{}, true
	}
	kept := absorb(w.out)
	// The conjuncts hold atoms only, and their slices are this call's
	// own: they become the AND nodes' kids as they are, as NewAnd and
	// NewOr would have copied them.
	switch len(kept) {
	case 0:
		return FalseExpr{}, true
	case 1:
		return kept[0].and(), true
	}
	kids := make([]Expr, len(kept))
	for i, c := range kept {
		kids[i] = c.and()
	}
	return Or{Kids: kids}, true
}

// and is the conjunct as one node, its atom when it has one.
func (c Conjunct) and() Expr {
	if len(c.Conds) == 1 {
		return c.Conds[0]
	}
	return And{Kids: c.Conds}
}

// absorb removes duplicate disjuncts and disjuncts subsumed by a more
// general one (if disjunct A's atom set is a subset of B's, then B
// implies A and B can be dropped). Atoms are compared with Same.
func absorb(disjuncts []Conjunct) []Conjunct {
	// size[i] counts disjunct i's distinct atoms; -1 marks it redundant.
	var buf [16]int
	size := buf[:0]
	for _, d := range disjuncts {
		size = append(size, distinct(d.Conds))
	}
	for i := range disjuncts {
		if size[i] < 0 {
			continue
		}
		for j := range disjuncts {
			if i == j || size[j] < 0 || size[i] > size[j] || !subset(disjuncts[i].Conds, disjuncts[j].Conds) {
				continue
			}
			// i is weaker (or equal): j is redundant. Break equal-set
			// ties by keeping the earlier disjunct.
			if size[i] == size[j] && j < i {
				continue
			}
			size[j] = -1
		}
	}
	out := disjuncts[:0]
	for i, d := range disjuncts {
		if size[i] >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// distinct counts the atoms of conds no earlier one is Same as.
func distinct(conds []Expr) int {
	n := 0
	for i, c := range conds {
		if !contains(conds[:i], c) {
			n++
		}
	}
	return n
}

// subset reports whether every atom of a is Same as one of b.
func subset(a, b []Expr) bool {
	for _, c := range a {
		if !contains(b, c) {
			return false
		}
	}
	return true
}

func contains(conds []Expr, c Expr) bool {
	for _, d := range conds {
		if Same(c, d) {
			return true
		}
	}
	return false
}

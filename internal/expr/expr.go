// Package expr defines predicate expressions over tuples: the propositional
// AND/OR/NOT combinations of simple selection conditions that the paper's
// upper envelopes are constrained to be, plus the normalization and
// simplification that Section 4.2's optimization pipeline relies on.
package expr

import (
	"slices"
	"sort"

	"minequery/internal/interval"
	"minequery/internal/value"
)

// CmpOp is a comparison operator in a simple selection condition.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Holds reports whether the operator is satisfied by c, the three-way
// result of comparing the left operand with the right (value.Compare).
func (op CmpOp) Holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Negate returns the complementary operator (e.g. < becomes >=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// Expr is a boolean predicate over a tuple. Eval uses SQL three-valued
// logic collapsed to bool: comparisons involving NULL are false, and a
// NOT holds where its negation normal form does (the form ToDNF builds),
// so a NULL fails both `a <= 3` and `NOT (a <= 3)`.
type Expr interface {
	// Eval evaluates the predicate against t positionally aligned with s.
	Eval(s *value.Schema, t value.Tuple) bool
	// String renders the predicate as display text: EXPLAIN output,
	// plan text and rewrite notes, which goldens pin. It is not SQL:
	// string literals render Go-quoted (Value.String), which the
	// dialect's lexer does not read back.
	String() string
}

// TrueExpr is the always-true predicate.
type TrueExpr struct{}

// FalseExpr is the always-false predicate. A NULL (empty) upper envelope
// is represented as FalseExpr, which the optimizer turns into a constant
// scan (the paper's "Constant Scan" plan-change case).
type FalseExpr struct{}

// Cmp is a simple selection condition `Col op Val`.
type Cmp struct {
	Col string
	Op  CmpOp
	Val value.Value
}

// In is set membership `Col IN (v1, ..., vn)`.
type In struct {
	Col  string
	Vals []value.Value
}

// And is conjunction over one or more children.
type And struct{ Kids []Expr }

// Or is disjunction over one or more children.
type Or struct{ Kids []Expr }

// Not is negation.
type Not struct{ Kid Expr }

// Eval implements Expr.
func (TrueExpr) Eval(*value.Schema, value.Tuple) bool { return true }

// Eval implements Expr.
func (FalseExpr) Eval(*value.Schema, value.Tuple) bool { return false }

// Eval implements Expr.
func (c Cmp) Eval(s *value.Schema, t value.Tuple) bool {
	i := s.Ordinal(c.Col)
	if i < 0 {
		return false
	}
	v := t[i]
	if v.IsNull() || c.Val.IsNull() {
		return false
	}
	return c.Op.Holds(value.Compare(v, c.Val))
}

// Interval returns the values of c.Col that satisfy c, when they form
// one: ok is false for <> (two intervals) and for a NULL literal (no
// row satisfies it). It is the one op → bound switch; AppendRangeConds is
// the way back.
func (c Cmp) Interval() (iv interval.Interval, ok bool) {
	if c.Val.IsNull() {
		return iv, false
	}
	switch c.Op {
	case OpEq:
		return interval.Point(c.Val), true
	case OpLt:
		return interval.Below(c.Val, false), true
	case OpLe:
		return interval.Below(c.Val, true), true
	case OpGt:
		return interval.Above(c.Val, false), true
	case OpGe:
		return interval.Above(c.Val, true), true
	}
	return iv, false
}

// AppendRangeConds appends iv as conditions on col to dst: its lower
// bound, then its upper, each only where iv is bounded, and each as the
// atom of atoms equal to it if there is one.
func AppendRangeConds(dst []Expr, col string, iv interval.Interval, atoms []Expr) []Expr {
	if v, inc, ok := iv.Lo(); ok {
		op := OpGt
		if inc {
			op = OpGe
		}
		dst = appendCmp(dst, Cmp{Col: col, Op: op, Val: v}, atoms)
	}
	if v, inc, ok := iv.Hi(); ok {
		op := OpLt
		if inc {
			op = OpLe
		}
		dst = appendCmp(dst, Cmp{Col: col, Op: op, Val: v}, atoms)
	}
	return dst
}

// appendCmp appends c to dst, as the atom of atoms equal to it if there
// is one rather than boxed anew.
func appendCmp(dst []Expr, c Cmp, atoms []Expr) []Expr {
	for _, a := range atoms {
		if x, ok := a.(Cmp); ok && x == c {
			return append(dst, a)
		}
	}
	return append(dst, c)
}

// Eval implements Expr.
func (in In) Eval(s *value.Schema, t value.Tuple) bool {
	i := s.Ordinal(in.Col)
	if i < 0 {
		return false
	}
	v := t[i]
	if v.IsNull() {
		return false
	}
	for _, w := range in.Vals {
		if value.Equal(v, w) {
			return true
		}
	}
	return false
}

// Eval implements Expr.
func (a And) Eval(s *value.Schema, t value.Tuple) bool {
	for _, k := range a.Kids {
		if !k.Eval(s, t) {
			return false
		}
	}
	return true
}

// Eval implements Expr.
func (o Or) Eval(s *value.Schema, t value.Tuple) bool {
	for _, k := range o.Kids {
		if k.Eval(s, t) {
			return true
		}
	}
	return false
}

// Eval implements Expr: the kid's negation normal form is evaluated.
func (n Not) Eval(s *value.Schema, t value.Tuple) bool { return evalNeg(n.Kid, s, t) }

// evalNeg evaluates NOT e by appendAtom's rule: each atom is negated (a
// negated IN is a <> per value) and evaluated by its own Eval, AND and
// OR swap, and a NOT cancels.
func evalNeg(e Expr, s *value.Schema, t value.Tuple) bool {
	switch x := e.(type) {
	case Cmp:
		x.Op = x.Op.Negate()
		return x.Eval(s, t)
	case ColCmp:
		x.Op = x.Op.Negate()
		return x.Eval(s, t)
	case In:
		return !slices.ContainsFunc(x.Vals, func(v value.Value) bool { return !(Cmp{x.Col, OpNe, v}).Eval(s, t) })
	case And:
		return slices.ContainsFunc(x.Kids, func(k Expr) bool { return evalNeg(k, s, t) })
	case Or:
		return !slices.ContainsFunc(x.Kids, func(k Expr) bool { return !evalNeg(k, s, t) })
	case Not:
		return x.Kid.Eval(s, t)
	}
	// TRUE and FALSE, and a node from outside this package.
	return !e.Eval(s, t)
}

// String implements Expr.
func (TrueExpr) String() string { return "TRUE" }

// String implements Expr.
func (FalseExpr) String() string { return "FALSE" }

// String implements Expr.
func (c Cmp) String() string {
	var buf [64]byte
	return string(c.Append(buf[:0]))
}

// String implements Expr.
func (in In) String() string {
	var buf [64]byte
	return string(in.Append(buf[:0]))
}

// String implements Expr.
func (a And) String() string {
	var buf [128]byte
	return string(a.Append(buf[:0]))
}

// String implements Expr.
func (o Or) String() string {
	var buf [128]byte
	return string(o.Append(buf[:0]))
}

// String implements Expr.
func (n Not) String() string {
	var buf [64]byte
	return string(n.Append(buf[:0]))
}

// Append appends e's String form to dst.
func Append(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case And:
		return x.Append(dst)
	case Or:
		return x.Append(dst)
	case Not:
		return x.Append(dst)
	}
	return appendLeaf(dst, e)
}

// Append appends TRUE to dst.
func (TrueExpr) Append(dst []byte) []byte { return append(dst, "TRUE"...) }

// Append appends FALSE to dst.
func (FalseExpr) Append(dst []byte) []byte { return append(dst, "FALSE"...) }

// Append appends c's String form, `col op val`, to dst.
func (c Cmp) Append(dst []byte) []byte {
	dst = append(dst, c.Col...)
	dst = append(dst, ' ')
	dst = append(dst, c.Op.String()...)
	dst = append(dst, ' ')
	return c.Val.Append(dst)
}

// Append appends in's String form, `col IN (v1, ..., vn)`, to dst.
func (in In) Append(dst []byte) []byte {
	dst = append(dst, in.Col...)
	dst = append(dst, " IN ("...)
	for i, v := range in.Vals {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.Append(dst)
	}
	return append(dst, ')')
}

// Append appends a's String form to dst: each kid in parentheses, joined
// by AND, or TRUE when there are none.
func (a And) Append(dst []byte) []byte { return appendKids(dst, a.Kids, " AND ", "TRUE") }

// Append appends o's String form to dst: each kid in parentheses, joined
// by OR, or FALSE when there are none.
func (o Or) Append(dst []byte) []byte { return appendKids(dst, o.Kids, " OR ", "FALSE") }

// Append appends n's String form, `NOT (kid)`, to dst.
func (n Not) Append(dst []byte) []byte {
	return appendKids(append(dst, "NOT "...), []Expr{n.Kid}, "", "")
}

// appendKids appends kids joined by sep, each in parentheses, or none
// when there are no kids. It is the only renderer that recurses, and it
// calls only itself, unwrapping a chain of NOTs in a loop: escape
// analysis tags a self-recursive function's dst as flowing to its
// result, but a cycle through two functions as flowing to the heap,
// which would move every String's stack scratch there, and it moves a
// slice literal passed to a recursive call there too.
func appendKids(dst []byte, kids []Expr, sep, none string) []byte {
	if len(kids) == 0 {
		return append(dst, none...)
	}
	for i, k := range kids {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = append(dst, '(')
		nots := 0
		for n, ok := k.(Not); ok; n, ok = k.(Not) {
			dst = append(dst, "NOT ("...)
			k, nots = n.Kid, nots+1
		}
		switch x := k.(type) {
		case And:
			dst = appendKids(dst, x.Kids, " AND ", "TRUE")
		case Or:
			dst = appendKids(dst, x.Kids, " OR ", "FALSE")
		default:
			dst = appendLeaf(dst, k)
		}
		for ; nots >= 0; nots-- {
			dst = append(dst, ')')
		}
	}
	return dst
}

// appendLeaf appends a node with no kids; a node type from outside this
// package renders through its own String.
func appendLeaf(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case Cmp:
		return x.Append(dst)
	case In:
		return x.Append(dst)
	case ColCmp:
		return x.Append(dst)
	case TrueExpr:
		return x.Append(dst)
	case FalseExpr:
		return x.Append(dst)
	}
	return append(dst, e.String()...)
}

// NewAnd builds a conjunction, flattening nested Ands and collapsing
// trivial cases (empty -> TRUE, single child -> child, any FALSE -> FALSE).
func NewAnd(kids ...Expr) Expr {
	n, one := 0, Expr(TrueExpr{})
	for _, k := range kids {
		switch kk := k.(type) {
		case TrueExpr:
		case FalseExpr:
			return FalseExpr{}
		case And:
			if len(kk.Kids) > 0 {
				n, one = n+len(kk.Kids), kk.Kids[0]
			}
		default:
			n, one = n+1, k
		}
	}
	if n <= 1 {
		return one
	}
	flat := make([]Expr, 0, n)
	for _, k := range kids {
		switch kk := k.(type) {
		case TrueExpr:
		case And:
			flat = append(flat, kk.Kids...)
		default:
			flat = append(flat, k)
		}
	}
	return And{Kids: flat}
}

// NewOr builds a disjunction, flattening nested Ors and collapsing
// trivial cases (empty -> FALSE, single child -> child, any TRUE -> TRUE).
func NewOr(kids ...Expr) Expr {
	n, one := 0, Expr(FalseExpr{})
	for _, k := range kids {
		switch kk := k.(type) {
		case FalseExpr:
		case TrueExpr:
			return TrueExpr{}
		case Or:
			if len(kk.Kids) > 0 {
				n, one = n+len(kk.Kids), kk.Kids[0]
			}
		default:
			n, one = n+1, k
		}
	}
	if n <= 1 {
		return one
	}
	flat := make([]Expr, 0, n)
	for _, k := range kids {
		switch kk := k.(type) {
		case FalseExpr:
		case Or:
			flat = append(flat, kk.Kids...)
		default:
			flat = append(flat, k)
		}
	}
	return Or{Kids: flat}
}

// MapColumns returns e with every column reference rewritten through f;
// structure, operators, and literals are preserved. A subtree whose
// columns f leaves as they are is returned as it is, not copied.
func MapColumns(e Expr, f func(string) string) Expr {
	e, _ = mapColumns(e, f)
	return e
}

// mapColumns is MapColumns, reporting whether any column changed.
func mapColumns(e Expr, f func(string) string) (Expr, bool) {
	switch x := e.(type) {
	case Cmp:
		if c := f(x.Col); c != x.Col {
			x.Col = c
			return x, true
		}
	case In:
		if c := f(x.Col); c != x.Col {
			x.Col = c
			return x, true
		}
	case ColCmp:
		if a, b := f(x.ColA), f(x.ColB); a != x.ColA || b != x.ColB {
			x.ColA, x.ColB = a, b
			return x, true
		}
	case And:
		if kids, changed := mapKids(x.Kids, f); changed {
			return And{Kids: kids}, true
		}
	case Or:
		if kids, changed := mapKids(x.Kids, f); changed {
			return Or{Kids: kids}, true
		}
	case Not:
		if kid, changed := mapColumns(x.Kid, f); changed {
			return Not{Kid: kid}, true
		}
	}
	return e, false
}

// mapKids maps each of kids, copying them only once one changes.
func mapKids(kids []Expr, f func(string) string) ([]Expr, bool) {
	var out []Expr
	for i, k := range kids {
		m, changed := mapColumns(k, f)
		if changed && out == nil {
			out = make([]Expr, len(kids))
			copy(out, kids[:i])
		}
		if out != nil {
			out[i] = m
		}
	}
	return out, out != nil
}

// Columns returns the sorted set of column names referenced by e.
func Columns(e Expr) []string {
	set := map[string]bool{}
	eachColumn(e, func(c string) bool {
		set[c] = true
		return true
	})
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Unresolved returns a column e references that s does not have — one
// every Eval of e over s would read as absent — or "" when s
// holds them all.
func Unresolved(e Expr, s *value.Schema) (col string) {
	eachColumn(e, func(c string) bool {
		if s.Ordinal(c) < 0 {
			col = c
		}
		return col == ""
	})
	return col
}

// eachColumn calls fn on every column reference of e, in tree order,
// until fn returns false; it reports whether the walk ran to the end.
func eachColumn(e Expr, fn func(string) bool) bool {
	switch x := e.(type) {
	case Cmp:
		return fn(x.Col)
	case In:
		return fn(x.Col)
	case ColCmp:
		return fn(x.ColA) && fn(x.ColB)
	case And:
		for _, k := range x.Kids {
			if !eachColumn(k, fn) {
				return false
			}
		}
	case Or:
		for _, k := range x.Kids {
			if !eachColumn(k, fn) {
				return false
			}
		}
	case Not:
		return eachColumn(x.Kid, fn)
	}
	return true
}

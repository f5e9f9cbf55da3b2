package vec

import (
	"minequery/internal/expr"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// The leaves evaluate `col op literal` and `col IN (...)` on a group's
// dictionary codes (storage.ColVec): the literals are ranked against the
// sorted dictionary once per filter call, which turns the predicate into
// a set of codes — nearly always one interval — and then at most one
// loop compares each candidate row's code with it. When the dictionary
// alone decides (no entry qualifies, or every entry does and the group
// holds no NULL) there is no loop: the term is answered for the whole
// group by two binary searches. Either way the selection is exactly the
// one row-wise value.Compare would produce, so a dictionary can save
// work but never change an answer.
//
// The translation keeps its state on the stack and on the Scratch; the
// nodes stay immutable and shared.

// leaf supplies the no-op freeze and static cost shared by all leaf
// operators. Costs are relative per-row weights used only to break
// near-ties in the adaptive ordering. A leaf holds no adaptive state:
// every execution shares it (instance returns the node itself).
type leaf struct{ c float64 }

func (leaf) freeze()         {}
func (l leaf) cost() float64 { return l.c }

// compareKinds reports how a literal of kind lit compares with the
// non-NULL values of a column of kind col: ranked (value.Compare looks
// at the values), or else with the same outcome cmp for every row,
// because Compare then orders by kind tag.
func compareKinds(col, lit value.Kind) (ranked bool, cmp int) {
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	if col == lit || (numeric(col) && numeric(lit)) {
		return true, 0
	}
	if col > lit {
		return false, 1
	}
	return false, -1
}

// constLeaf is the lowering of a comparison whose outcome is the same
// for every non-NULL value of the column.
func constLeaf(ord int, holds bool) node {
	if holds {
		return &notNullNode{leaf: leaf{0.5}, ord: ord}
	}
	return falseNode{}
}

// compileCmp lowers `col op literal` to a leaf over the column's codes.
func compileCmp(x expr.Cmp, s *value.Schema) node {
	ord := s.Ordinal(x.Col)
	if ord < 0 || x.Val.IsNull() {
		return falseNode{}
	}
	colKind := s.Col(ord).Kind
	if colKind == value.KindNull {
		// Every stored value is NULL; comparisons are uniformly false.
		return falseNode{}
	}
	if ranked, cmp := compareKinds(colKind, x.Val.Kind()); !ranked {
		return constLeaf(ord, x.Op.Holds(cmp))
	}
	c := 1.0
	if colKind == value.KindString {
		c = 1.2
	}
	return &cmpNode{leaf: leaf{c}, ord: ord, op: x.Op, v: x.Val}
}

// compileIn lowers `col IN (...)` to a set-membership leaf. List
// elements that can never equal a value of the column's kind are
// dropped at compile time.
func compileIn(x expr.In, s *value.Schema) node {
	ord := s.Ordinal(x.Col)
	if ord < 0 {
		return falseNode{}
	}
	colKind := s.Col(ord).Kind
	if colKind == value.KindNull {
		return falseNode{}
	}
	var vals []value.Value
	for _, w := range x.Vals {
		if w.IsNull() {
			continue
		}
		if ranked, _ := compareKinds(colKind, w.Kind()); ranked {
			vals = append(vals, w)
		}
	}
	if len(vals) == 0 {
		return falseNode{}
	}
	c := 1.3
	if colKind == value.KindBool {
		c = 1
	}
	return &inNode{leaf: leaf{c}, ord: ord, vals: vals}
}

// compileColCmp lowers a column-to-column comparison. Kept generic —
// these appear in transitivity-derived predicates, not hot scan loops.
func compileColCmp(x expr.ColCmp, s *value.Schema) node {
	a, b := s.Ordinal(x.ColA), s.Ordinal(x.ColB)
	if a < 0 || b < 0 {
		return falseNode{}
	}
	return &colCmpNode{leaf: leaf{2}, a: a, b: b, op: x.Op}
}

// codeSel is the translation of one leaf for one group: the dictionary
// codes whose rows pass. It is one interval [lo, hi) for as long as the
// runs added to it touch, and a table over the codes (on the Scratch)
// once they do not.
type codeSel struct {
	col    *storage.ColVec
	sc     *Scratch
	lo, hi int
	set    []bool // nil while [lo, hi) says it all
}

// add includes the codes [lo, hi).
func (s *codeSel) add(lo, hi int) {
	switch {
	case lo >= hi:
	case s.set != nil:
		fill(s.set[lo:hi])
	case s.lo == s.hi:
		s.lo, s.hi = lo, hi
	case lo <= s.hi && s.lo <= hi:
		s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
	default:
		s.set = s.sc.codeSet(s.col.DictLen())
		fill(s.set[s.lo:s.hi])
		fill(s.set[lo:hi])
	}
}

func fill(b []bool) {
	for i := range b {
		b[i] = true
	}
}

// filter returns the rows of sel whose code was added.
func (s *codeSel) filter(sel []int32) []int32 {
	col, sc := s.col, s.sc
	if s.set == nil {
		switch {
		case s.lo == s.hi:
			// The group holds no value that passes.
			return sc.get(0)
		case s.lo == 0 && s.hi == col.DictLen():
			// Every value the group holds passes.
			return notNull(col, sel, sc)
		}
	}
	sc.work++
	out := sc.get(len(sel))
	c8, c16 := col.Codes()
	switch {
	case s.set != nil && c8 != nil:
		return setLoop(out, sel, c8, col.Nulls, s.set)
	case s.set != nil:
		return setLoop(out, sel, c16, col.Nulls, s.set)
	case c8 != nil:
		return rangeLoop(out, sel, c8, col.Nulls, s.lo, s.hi)
	default:
		return rangeLoop(out, sel, c16, col.Nulls, s.lo, s.hi)
	}
}

// rangeLoop keeps the rows of sel that are not NULL and whose code is in
// [lo, hi). out has room for all of sel; a row is stored before it is
// known to stay, so the loop carries no data-dependent branch.
func rangeLoop[C uint8 | uint16](out, sel []int32, codes []C, nulls []bool, lo, hi int) []int32 {
	out = out[:len(sel)]
	base, width := uint(lo), uint(hi-lo)
	k := 0
	if nulls == nil {
		for _, i := range sel {
			out[k] = i
			if uint(codes[i])-base < width {
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel {
		out[k] = i
		if uint(codes[i])-base < width && !nulls[i] {
			k++
		}
	}
	return out[:k]
}

// setLoop is rangeLoop for codes marked in a table.
func setLoop[C uint8 | uint16](out, sel []int32, codes []C, nulls []bool, set []bool) []int32 {
	out = out[:len(sel)]
	k := 0
	if nulls == nil {
		for _, i := range sel {
			out[k] = i
			if set[codes[i]] {
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel {
		out[k] = i
		if set[codes[i]] && !nulls[i] {
			k++
		}
	}
	return out[:k]
}

// notNull returns the non-NULL rows of sel: none or all of them, without
// looking, when the group holds only NULLs or no NULL.
func notNull(col *storage.ColVec, sel []int32, sc *Scratch) []int32 {
	switch {
	case col.DictLen() == 0:
		return sc.get(0)
	case col.Nulls == nil:
		return append(sc.get(len(sel)), sel...)
	}
	sc.work++
	out := sc.get(len(sel))
	for _, i := range sel {
		if !col.Nulls[i] {
			out = append(out, i)
		}
	}
	return out
}

// notNullNode passes rows whose column value is non-NULL; the lowering
// of comparisons whose outcome is constant for any non-NULL value.
type notNullNode struct {
	leaf
	ord int
}

func (n *notNullNode) instance() node { return n }

func (n *notNullNode) filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	return notNull(&g.Cols[n.ord], sel, sc)
}

// cmpNode is `col op v` for a literal the column's values rank against.
type cmpNode struct {
	leaf
	ord int
	op  expr.CmpOp
	v   value.Value
}

func (n *cmpNode) instance() node { return n }

func (n *cmpNode) filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	col := &g.Cols[n.ord]
	s := codeSel{col: col, sc: sc}
	lt, le := col.Rank(n.v)
	if n.op.Holds(-1) {
		s.add(0, lt)
	}
	if n.op.Holds(0) {
		s.add(lt, le)
	}
	if n.op.Holds(1) {
		s.add(le, col.DictLen())
	}
	return s.filter(sel)
}

// inNode is `col IN (vals)`, every element ranking against the column.
type inNode struct {
	leaf
	ord  int
	vals []value.Value
}

func (n *inNode) instance() node { return n }

func (n *inNode) filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	col := &g.Cols[n.ord]
	s := codeSel{col: col, sc: sc}
	for _, v := range n.vals {
		s.add(col.Rank(v))
	}
	return s.filter(sel)
}

type colCmpNode struct {
	leaf
	a, b int
	op   expr.CmpOp
}

func (n *colCmpNode) instance() node { return n }

func (n *colCmpNode) filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	sc.work++
	out := sc.get(len(sel))
	ca, cb := &g.Cols[n.a], &g.Cols[n.b]
	for _, i := range sel {
		a, b := ca.Value(int(i)), cb.Value(int(i))
		if !a.IsNull() && !b.IsNull() && n.op.Holds(value.Compare(a, b)) {
			out = append(out, i)
		}
	}
	return out
}

// Package agg implements hash aggregation as mergeable partial states.
//
// The contract that everything else leans on: a partial state is
// ORDER-INDEPENDENT — accumulating the same multiset of rows in any
// order, split across any number of partial states merged in any order,
// finalizes to byte-identical results. That is what lets morsel
// workers, columnar group workers, partitions, and cluster shards each
// accumulate locally and merge without coordination, while the output
// stays identical to the serial single-threaded run at any DOP.
//
// Order independence is trivial for COUNT (int addition), SUM over INT
// (two's-complement wraparound addition is associative and
// commutative), and MIN/MAX (commutative under value.Compare, a total
// order, with the values it ties stored in one canonical form). SUM and
// AVG over FLOAT would not be order-independent under IEEE addition
// (rounding makes it non-associative), so those accumulate EXACTLY: a
// finite float64 is an integer multiple of 2^-1074, so sums are kept as
// big.Int numerators in units of 2^-1074 and rounded exactly once at
// finalize via big.Rat.Float64 (correctly rounded to nearest). NaN and
// ±Inf are tracked as commutative flags. AVG over INT keeps the exact
// big.Int sum. Every execution path therefore produces the one
// mathematically-exact result rounded once.
package agg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"

	"minequery/internal/value"
)

// Func identifies an aggregate function. None marks a plain select item
// (a group-by column carried through the aggregation).
type Func uint8

const (
	None Func = iota
	Count
	Sum
	Min
	Max
	Avg
)

func (f Func) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	}
	return "none"
}

// FuncByName maps a (case-insensitive) SQL function name to its Func.
func FuncByName(name string) (Func, bool) {
	switch strings.ToLower(name) {
	case "count":
		return Count, true
	case "sum":
		return Sum, true
	case "min":
		return Min, true
	case "max":
		return Max, true
	case "avg":
		return Avg, true
	}
	return None, false
}

// Item is one select-list entry of an aggregate query: an aggregate
// call over a column (or * for COUNT), or a plain group-by column
// (Func == None).
type Item struct {
	Func Func
	Col  string // input column; empty when Star
	Star bool   // COUNT(*)
}

// Name is the item's canonical output column name.
func (it Item) Name() string {
	if it.Func == None {
		return it.Col
	}
	var buf [32]byte
	return string(it.AppendName(buf[:0]))
}

// AppendName appends the item's Name to dst: the column, or the
// function over the column or *.
func (it Item) AppendName(dst []byte) []byte {
	if it.Func == None {
		return append(dst, it.Col...)
	}
	dst = append(dst, it.Func.String()...)
	dst = append(dst, '(')
	if it.Star {
		dst = append(dst, '*')
	} else {
		dst = append(dst, it.Col...)
	}
	return append(dst, ')')
}

// ColSpec is one group-by column resolved against an input schema.
type ColSpec struct {
	Name string
	Kind value.Kind
	Ord  int
}

// ItemSpec is one select item resolved against an input schema.
type ItemSpec struct {
	Item
	Ord      int        // input ordinal; -1 for COUNT(*)
	InKind   value.Kind // input column kind; 0 for COUNT(*)
	GroupIdx int        // for None items: index into Spec.GroupBy
}

// OutKind is the finalized output kind of the item.
func (is ItemSpec) OutKind() value.Kind {
	switch is.Func {
	case Count:
		return value.KindInt
	case Sum:
		if is.InKind == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	case Avg:
		return value.KindFloat
	default:
		return is.InKind
	}
}

// Spec is a resolved aggregation: which input ordinals form the group
// key and what each output column computes. The select-list order of
// Items is the output column order.
type Spec struct {
	GroupBy []ColSpec
	Items   []ItemSpec
}

// Resolve binds group-by columns and select items against an input
// schema, validating the shapes the engine supports: SUM/AVG need a
// numeric input, and a plain select item must be one of the group-by
// columns (otherwise its per-group value would be ambiguous).
func Resolve(in *value.Schema, groupBy []string, items []Item) (*Spec, error) {
	s := &Spec{}
	for _, g := range groupBy {
		o := in.Ordinal(g)
		if o < 0 {
			return nil, fmt.Errorf("agg: unknown GROUP BY column %q", g)
		}
		s.GroupBy = append(s.GroupBy, ColSpec{Name: in.Col(o).Name, Kind: in.Col(o).Kind, Ord: o})
	}
	for _, it := range items {
		is := ItemSpec{Item: it, Ord: -1, GroupIdx: -1}
		if !it.Star {
			o := in.Ordinal(it.Col)
			if o < 0 {
				return nil, fmt.Errorf("agg: unknown column %q", it.Col)
			}
			is.Ord, is.InKind = o, in.Col(o).Kind
		}
		switch it.Func {
		case None:
			for gi, g := range s.GroupBy {
				if g.Ord == is.Ord {
					is.GroupIdx = gi
					break
				}
			}
			if is.GroupIdx < 0 {
				return nil, fmt.Errorf("agg: column %q must appear in GROUP BY or inside an aggregate", it.Col)
			}
		case Sum, Avg:
			if is.InKind != value.KindInt && is.InKind != value.KindFloat {
				return nil, fmt.Errorf("agg: %s over non-numeric column %q (%s)", it.Func, it.Col, is.InKind)
			}
		}
		s.Items = append(s.Items, is)
	}
	return s, nil
}

// OutSchema is the schema of finalized rows: one column per select
// item, in select-list order.
func (s *Spec) OutSchema() (*value.Schema, error) {
	cols := make([]value.Column, len(s.Items))
	for i, it := range s.Items {
		cols[i] = value.Column{Name: it.Name(), Kind: it.OutKind()}
	}
	return value.NewSchema(cols...)
}

// acc is one aggregate's accumulator within one group. Only the fields
// the item's function needs are touched.
type acc struct {
	n    int64    // rows accumulated (non-NULL inputs; all rows for COUNT(*))
	isum int64    // SUM over INT: wraparound sum
	num  *big.Int // exact sum: float units of 2^-1074, or AVG(int) exact sum
	// Commutative IEEE special-case flags for float sums.
	anyNaN, posInf, negInf bool

	mv    value.Value // MIN/MAX running extremum
	hasMV bool
}

func (a *acc) addNum(x *big.Int) {
	if a.num == nil {
		a.num = new(big.Int)
	}
	a.num.Add(a.num, x)
}

// addFloat accumulates one finite-or-not float64 exactly.
func (a *acc) addFloat(f float64, scratch *big.Int) {
	switch {
	case math.IsNaN(f):
		a.anyNaN = true
	case math.IsInf(f, 1):
		a.posInf = true
	case math.IsInf(f, -1):
		a.negInf = true
	default:
		a.addNum(floatUnitsInto(scratch, f))
	}
}

// merge folds o into a. o must not be used afterwards (its big.Int may
// be shared).
func (a *acc) merge(o *acc, is ItemSpec) {
	a.n += o.n
	a.isum += o.isum
	if o.num != nil {
		a.addNum(o.num)
	}
	a.anyNaN = a.anyNaN || o.anyNaN
	a.posInf = a.posInf || o.posInf
	a.negInf = a.negInf || o.negInf
	if o.hasMV {
		switch {
		case !a.hasMV:
			a.mv, a.hasMV = canonVal(o.mv), true
		case is.Func == Min && value.Compare(o.mv, a.mv) < 0:
			a.mv = canonVal(o.mv)
		case is.Func == Max && value.Compare(o.mv, a.mv) > 0:
			a.mv = canonVal(o.mv)
		}
	}
}

// group is one group key's row of accumulators.
type group struct {
	key  []value.Value
	accs []acc
}

// Table is a partial (or, after merging everything, total) aggregate
// state. Not safe for concurrent use: parallel producers each own a
// Table and merge afterwards.
type Table struct {
	Spec *Spec

	groups  map[string]*group
	keyBuf  []byte
	scratch big.Int
	merges  int64
}

// NewTable returns an empty state for the spec.
func NewTable(s *Spec) *Table {
	return &Table{Spec: s, groups: map[string]*group{}}
}

// Groups reports the number of distinct group keys accumulated so far.
func (t *Table) Groups() int { return len(t.groups) }

// Merges reports how many partial-state merges this table absorbed
// (Merge and MergeWire calls).
func (t *Table) Merges() int64 { return t.merges }

func newGroup(s *Spec) *group {
	return &group{key: make([]value.Value, len(s.GroupBy)), accs: make([]acc, len(s.Items))}
}

func (t *Table) groupFor(key []value.Value) *group {
	t.keyBuf = t.keyBuf[:0]
	for _, v := range key {
		t.keyBuf = appendKey(t.keyBuf, v)
	}
	gr, ok := t.groups[string(t.keyBuf)]
	if !ok {
		gr = newGroup(t.Spec)
		for i, v := range key {
			gr.key[i] = canonVal(v)
		}
		t.groups[string(t.keyBuf)] = gr
	}
	return gr
}

// Add accumulates one input tuple (in the spec's input schema).
func (t *Table) Add(tup value.Tuple) {
	t.keyBuf = t.keyBuf[:0]
	for _, g := range t.Spec.GroupBy {
		t.keyBuf = appendKey(t.keyBuf, tup[g.Ord])
	}
	gr, ok := t.groups[string(t.keyBuf)]
	if !ok {
		gr = newGroup(t.Spec)
		for i, g := range t.Spec.GroupBy {
			gr.key[i] = canonVal(tup[g.Ord])
		}
		t.groups[string(t.keyBuf)] = gr
	}
	for i := range t.Spec.Items {
		is := &t.Spec.Items[i]
		a := &gr.accs[i]
		switch is.Func {
		case None:
			// Carried by the group key.
		case Count:
			if is.Star || !tup[is.Ord].IsNull() {
				a.n++
			}
		case Sum, Avg:
			v := tup[is.Ord]
			if v.IsNull() {
				break
			}
			a.n++
			if is.InKind == value.KindInt {
				iv := v.AsInt()
				if is.Func == Sum {
					a.isum += iv
				} else {
					a.addNum(t.scratch.SetInt64(iv))
				}
			} else {
				a.addFloat(v.AsFloat(), &t.scratch)
			}
		case Min:
			v := tup[is.Ord]
			if v.IsNull() {
				break
			}
			if !a.hasMV || value.Compare(v, a.mv) < 0 {
				a.mv, a.hasMV = canonVal(v), true
			}
		case Max:
			v := tup[is.Ord]
			if v.IsNull() {
				break
			}
			if !a.hasMV || value.Compare(v, a.mv) > 0 {
				a.mv, a.hasMV = canonVal(v), true
			}
		}
	}
}

// Merge folds o into t. o must not be used afterwards. Merge order does
// not affect the finalized result.
func (t *Table) Merge(o *Table) {
	t.merges++
	for k, og := range o.groups {
		gr, ok := t.groups[k]
		if !ok {
			t.groups[k] = og
			continue
		}
		for i := range gr.accs {
			gr.accs[i].merge(&og.accs[i], t.Spec.Items[i])
		}
	}
}

// Finalize renders the accumulated state as output rows in canonical
// order: group keys ascending by their exact encoded bytes. An
// ungrouped aggregation always emits exactly one row — the aggregate
// identities (COUNT 0, others NULL) when no rows were accumulated.
func (t *Table) Finalize() []value.Tuple {
	if len(t.Spec.GroupBy) == 0 {
		gr, ok := t.groups[""]
		if !ok {
			gr = newGroup(t.Spec)
		}
		return []value.Tuple{t.finalizeGroup(gr)}
	}
	keys := make([]string, 0, len(t.groups))
	for k := range t.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.finalizeGroup(t.groups[k]))
	}
	return out
}

func (t *Table) finalizeGroup(gr *group) value.Tuple {
	row := make(value.Tuple, len(t.Spec.Items))
	for i := range t.Spec.Items {
		is := &t.Spec.Items[i]
		a := &gr.accs[i]
		switch is.Func {
		case None:
			row[i] = gr.key[is.GroupIdx]
		case Count:
			row[i] = value.Int(a.n)
		case Sum:
			switch {
			case a.n == 0:
				row[i] = value.Null()
			case is.InKind == value.KindInt:
				row[i] = value.Int(a.isum)
			default:
				row[i] = value.Float(a.finalizeFloat(1))
			}
		case Avg:
			switch {
			case a.n == 0:
				row[i] = value.Null()
			case is.InKind == value.KindInt:
				f, _ := new(big.Rat).SetFrac(a.numOrZero(), big.NewInt(a.n)).Float64()
				row[i] = value.Float(f)
			default:
				row[i] = value.Float(a.finalizeFloat(a.n))
			}
		case Min, Max:
			if !a.hasMV {
				row[i] = value.Null()
			} else {
				row[i] = a.mv
			}
		}
	}
	return row
}

func (a *acc) numOrZero() *big.Int {
	if a.num == nil {
		return new(big.Int)
	}
	return a.num
}

// finalizeFloat converts the exact 2^-1074-unit numerator (divided by
// div for AVG) to the correctly-rounded nearest float64 — one rounding,
// applied to the exact sum.
func (a *acc) finalizeFloat(div int64) float64 {
	switch {
	case a.anyNaN || (a.posInf && a.negInf):
		return math.NaN()
	case a.posInf:
		return math.Inf(1)
	case a.negInf:
		return math.Inf(-1)
	}
	den := new(big.Int).Lsh(big.NewInt(div), 1074)
	f, _ := new(big.Rat).SetFrac(a.numOrZero(), den).Float64()
	return f
}

// floatUnitsInto writes f's exact value in units of 2^-1074 into dst:
// every finite float64 is an integer multiple of the smallest subnormal.
func floatUnitsInto(dst *big.Int, f float64) *big.Int {
	b := math.Float64bits(f)
	e := int((b >> 52) & 0x7FF)
	m := b & (1<<52 - 1)
	if e == 0 {
		dst.SetUint64(m)
	} else {
		dst.SetUint64(m | 1<<52)
		dst.Lsh(dst, uint(e-1))
	}
	if b>>63 == 1 {
		dst.Neg(dst)
	}
	return dst
}

// canonVal canonicalizes a value stored as a group key or a MIN/MAX so
// that values the order ties also render identically — whichever row or
// worker came first: -0.0 becomes +0.0 and every NaN bit pattern
// becomes the canonical NaN.
func canonVal(v value.Value) value.Value {
	if v.Kind() == value.KindFloat {
		f := v.AsFloat()
		if f == 0 {
			return value.Float(0)
		}
		if math.IsNaN(f) {
			return value.Float(math.NaN())
		}
	}
	return v
}

// appendKey appends an exact, kind-tagged, order-preserving encoding of
// v. Unlike value.SortKey it never converts INT to float (so int64s
// beyond 2^53 stay distinct); within one column all values share a
// kind, so byte order of concatenated keys gives a deterministic
// canonical group order — value.Compare's within each column.
func appendKey(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, 0x00)
	case value.KindInt:
		dst = append(dst, 0x01)
		return binary.BigEndian.AppendUint64(dst, uint64(v.AsInt())^(1<<63))
	case value.KindFloat:
		dst = append(dst, 0x02)
		f := canonVal(v).AsFloat() // one key for the values Compare ties
		if math.IsNaN(f) {
			return binary.BigEndian.AppendUint64(dst, 0) // below every number
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(dst, 0x03, b)
	default:
		dst = append(dst, 0x04)
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		return append(dst, 0x00, 0x00)
	}
}

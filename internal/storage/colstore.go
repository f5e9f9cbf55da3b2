// Column-group storage: a columnar sidecar to the row heap. Rows are
// decoded once, at build time, into fixed-size groups, and each group
// seals every column into a sorted dictionary of the values it holds
// plus one small code per row. Scan-filter pipelines then evaluate a
// predicate by translating its constants against the dictionary once
// per group and running tight loops over the codes — or no loop at all
// when the dictionary already answers. The row heap stays the source of
// truth — the column store is derived, rebuilt on demand, and silently
// bypassed when stale (see catalog.Table.ColumnStore).
package storage

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"minequery/internal/value"
)

// ColGroupRows is the default number of rows per column group. Groups
// are the unit of vectorized evaluation and of parallel-scan work
// distribution; boundaries are fixed at build time, so group-wise
// results are deterministic at any DOP.
const ColGroupRows = 2048

// maxGroupRows bounds a group so that a code always fits in 16 bits.
const maxGroupRows = 1 << 16

// ColVec is one column's values within a group, sealed at build time
// into the same shape for every kind: the group's distinct non-NULL
// values, sorted, and for each row the position of its value in that
// dictionary. Every slice is exactly as long as its content; nothing is
// written after the build.
//
// The dictionary is ordered by value.Compare. Where Compare ties values
// that are not the same value — 0.0 and -0.0, NaN payloads — each is an
// entry, next to the others, so a row reconstructs to the bits it was
// stored with and a constant still translates to one contiguous run of
// codes.
type ColVec struct {
	Kind value.Kind
	// Nulls marks the NULL rows; nil when the group holds none. A NULL
	// row's code is 0 and means nothing.
	Nulls []bool

	// The dictionary, in the slice of the column's kind (BOOL as 0/1 in
	// ints). Empty for a KindNull column and for a group whose rows are
	// all NULL.
	ints   []int64
	floats []float64
	strs   []string

	// The codes: codes8 when the dictionary has at most 256 entries,
	// else codes16; neither when it is empty.
	codes8  []uint8
	codes16 []uint16
}

// IsNull reports whether row i is NULL.
func (v *ColVec) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// DictLen is the number of distinct non-NULL values the group holds.
func (v *ColVec) DictLen() int { return len(v.ints) + len(v.floats) + len(v.strs) }

// Codes returns the per-row dictionary positions, in whichever width the
// group was sealed with; both are nil when the dictionary is empty.
func (v *ColVec) Codes() ([]uint8, []uint16) { return v.codes8, v.codes16 }

// Rank places lit among the dictionary entries exactly as value.Compare
// would: lt entries compare below it and le-lt equal to it, so codes
// [lt, le) are the rows `col = lit` holds for, [0, lt) those below,
// [le, DictLen()) those above. lit must be comparable with the column —
// numeric for an INT or FLOAT column, else of the column's kind. It
// allocates nothing.
func (v *ColVec) Rank(lit value.Value) (lt, le int) {
	switch v.Kind {
	case value.KindInt:
		if lit.Kind() == value.KindInt {
			return rank(v.ints, lit.AsInt())
		}
		// Against a FLOAT, Compare widens the column's side too. Widening
		// is monotone, so the entries stay sorted under it.
		d, f := v.ints, lit.AsFloat()
		lt = sort.Search(len(d), func(i int) bool { return !cmp.Less(float64(d[i]), f) })
		le = lt + sort.Search(len(d)-lt, func(i int) bool { return cmp.Less(f, float64(d[lt+i])) })
		return lt, le
	case value.KindFloat:
		return rank(v.floats, lit.AsFloat())
	case value.KindString:
		return rank(v.strs, lit.AsString())
	case value.KindBool:
		var b int64
		if lit.AsBool() {
			b = 1
		}
		return rank(v.ints, b)
	}
	return 0, 0
}

// rank is Rank over one kind's entries, in cmp.Compare's order: -0.0
// and 0.0 both fall in [lt, le) of either, and so do two NaNs.
func rank[T cmp.Ordered](d []T, x T) (lt, le int) {
	lt = sort.Search(len(d), func(i int) bool { return !cmp.Less(d[i], x) })
	le = lt + sort.Search(len(d)-lt, func(i int) bool { return cmp.Less(x, d[lt+i]) })
	return lt, le
}

// Value reconstructs row i's value, exactly equal to what decoding the
// heap record would produce.
func (v *ColVec) Value(i int) value.Value {
	if v.IsNull(i) {
		return value.Null()
	}
	var c int
	if v.codes8 != nil {
		c = int(v.codes8[i])
	} else {
		c = int(v.codes16[i])
	}
	switch v.Kind {
	case value.KindInt:
		return value.Int(v.ints[c])
	case value.KindFloat:
		return value.Float(v.floats[c])
	case value.KindString:
		return value.Str(v.strs[c])
	case value.KindBool:
		return value.Bool(v.ints[c] != 0)
	}
	return value.Null()
}

// ColGroup is one page group: up to ColGroupRows rows of one partition,
// stored column-wise. Groups never straddle a partition boundary, so a
// pruned scan skips whole groups.
type ColGroup struct {
	// Part is the owning partition (0 for unpartitioned tables).
	Part int
	// N is the row count.
	N int
	// Cols holds one vector per schema column.
	Cols []ColVec
}

// ColumnStore is a table's columnar sidecar: all groups in heap-scan
// order (partition-major for partitioned heaps — the same row order the
// row-path sequential scan produces). Immutable after build.
type ColumnStore struct {
	Groups []*ColGroup
	// NumRows is the total row count across groups.
	NumRows int64
}

// BuildColumnStore decodes every live row of s into column groups of at
// most groupRows rows (<=0 means ColGroupRows). kinds gives the schema
// column kinds. Partitioned heaps are built partition by partition so
// groups carry their partition tag. Build reads through the heap's
// ordinary Scan path and counts nothing: it is no query's read.
//
// What the store keeps is only what the sealed groups hold: every record
// is decoded into one reused tuple and buffered in one reused group
// builder, and of a group's strings only the distinct ones survive it.
// TEXT fields are decoded through one value.StringTable, so a string the
// build has met before costs no allocation.
func BuildColumnStore(s Store, kinds []value.Kind, groupRows int) (*ColumnStore, error) {
	if groupRows <= 0 {
		groupRows = ColGroupRows
	}
	if groupRows > maxGroupRows {
		return nil, fmt.Errorf("storage: column store: %d rows per group, at most %d", groupRows, maxGroupRows)
	}
	for _, k := range kinds {
		if k > value.KindBool {
			return nil, fmt.Errorf("storage: column store: unsupported column kind %s", k)
		}
	}
	cs := &ColumnStore{}
	b := &groupBuilder{kinds: kinds, cols: make([]colBuffer, len(kinds))}
	var tup value.Tuple
	var strs value.StringTable
	appendFrom := func(h Store, part int) error {
		var buildErr error
		scanErr := h.Scan(func(_ RID, rec []byte) bool {
			if tup, buildErr = strs.DecodeTupleInto(tup, rec, nil); buildErr != nil {
				return false
			}
			if buildErr = b.add(tup); buildErr != nil {
				return false
			}
			if b.n == groupRows {
				cs.Groups = append(cs.Groups, b.seal(part))
			}
			cs.NumRows++
			return true
		})
		if buildErr != nil {
			return buildErr
		}
		if b.n > 0 {
			cs.Groups = append(cs.Groups, b.seal(part))
		}
		return scanErr
	}
	if ph, ok := s.(*PartitionedHeap); ok {
		for p := 0; p < ph.NumPartitions(); p++ {
			if err := appendFrom(ph.Partition(p), p); err != nil {
				return nil, err
			}
		}
		return cs, nil
	}
	if err := appendFrom(s, 0); err != nil {
		return nil, err
	}
	return cs, nil
}

// groupBuilder buffers the rows of the group being built, column by
// column, and seals them into a ColGroup. One builder serves a whole
// build: seal empties the buffers and keeps their storage.
type groupBuilder struct {
	kinds []value.Kind
	n     int
	cols  []colBuffer
	codes []uint16 // seal's working codes, before they are cut to width
	slots []uint16 // sealCounting's table, one slot per value of a range
}

// colBuffer is one column of the group being built: which rows are NULL,
// and the others' values, each with its row, in the slice of the
// column's kind (BOOL as 0/1 in ints).
type colBuffer struct {
	nulls   []bool
	anyNull bool
	ints    []rowValue[int64]
	floats  []rowValue[float64]
	strs    []rowValue[string]
}

// rowValue is one non-NULL value and the row of the group that holds it.
type rowValue[T any] struct {
	v   T
	row int32
}

// add buffers one row. Each value must be NULL or match its column's
// kind (the catalog's insert path enforces this for every stored row,
// widening INT into FLOAT columns).
func (b *groupBuilder) add(tup value.Tuple) error {
	if len(tup) != len(b.kinds) {
		return fmt.Errorf("storage: column store: row arity %d, schema arity %d", len(tup), len(b.kinds))
	}
	row := int32(b.n)
	for c, val := range tup {
		col, kind := &b.cols[c], b.kinds[c]
		isNull := val.IsNull()
		col.nulls = append(col.nulls, isNull)
		if isNull {
			col.anyNull = true
			continue
		}
		if val.Kind() != kind && !(kind == value.KindFloat && val.Kind() == value.KindInt) {
			return fmt.Errorf("storage: column store: %s value in %s column", val.Kind(), kind)
		}
		switch kind {
		case value.KindInt:
			col.ints = append(col.ints, rowValue[int64]{val.AsInt(), row})
		case value.KindFloat:
			col.floats = append(col.floats, rowValue[float64]{val.AsFloat(), row})
		case value.KindString:
			col.strs = append(col.strs, rowValue[string]{val.AsString(), row})
		case value.KindBool:
			var p int64
			if val.AsBool() {
				p = 1
			}
			col.ints = append(col.ints, rowValue[int64]{p, row})
		}
	}
	b.n++
	return nil
}

// seal turns the buffered rows into a group and empties the builder.
func (b *groupBuilder) seal(part int) *ColGroup {
	g := &ColGroup{Part: part, N: b.n, Cols: make([]ColVec, len(b.kinds))}
	if cap(b.codes) < b.n {
		b.codes = make([]uint16, b.n)
	}
	for c, kind := range b.kinds {
		v, col := &g.Cols[c], &b.cols[c]
		v.Kind = kind
		if col.anyNull {
			v.Nulls = make([]bool, b.n)
			copy(v.Nulls, col.nulls)
		}
		codes := b.codes[:b.n]
		switch kind {
		case value.KindInt, value.KindBool:
			v.ints = b.sealInts(v, col.ints, codes)
		case value.KindFloat:
			v.floats = sealDict(v, col.floats, codes, func(a, b rowValue[float64]) int { return compareFloatBits(a.v, b.v) })
		case value.KindString:
			v.strs = sealDict(v, col.strs, codes, func(a, b rowValue[string]) int { return cmp.Compare(a.v, b.v) })
		}
		col.nulls, col.anyNull = col.nulls[:0], false
		col.ints, col.floats, col.strs = col.ints[:0], col.floats[:0], col.strs[:0]
	}
	b.n = 0
	return g
}

// sealInts seals an INT or BOOL column. When the group's values span
// fewer than countingSpan × its row count integers, they are coded by counting
// (sealCounting), which needs no comparison; otherwise by sealDict's
// sort. Both give the same dictionary and codes.
func (b *groupBuilder) sealInts(v *ColVec, vals []rowValue[int64], codes []uint16) []int64 {
	if len(vals) == 0 {
		return nil
	}
	lo, hi := vals[0].v, vals[0].v
	for _, e := range vals[1:] {
		lo, hi = min(lo, e.v), max(hi, e.v)
	}
	// hi-lo wraps past MaxInt64, but as a uint64 it is the exact width:
	// a group spanning MinInt64..MaxInt64 is 2^64-1 wide, not negative.
	if span := uint64(hi) - uint64(lo); span < countingSpan*uint64(b.n) {
		if cap(b.slots) <= int(span) {
			b.slots = make([]uint16, span+1, countingSpan*b.n)
		}
		return sealCounting(v, vals, lo, b.slots[:span+1], codes)
	}
	return sealDict(v, vals, codes, func(a, b rowValue[int64]) int { return cmp.Compare(a.v, b.v) })
}

// countingSpan bounds the span, in multiples of a group's row count, of
// an INT column sealInts codes by counting: one pass over that many slots
// costs less than sorting the group.
const countingSpan = 8

// sealCounting is sealDict for integers lo and up that fit slots, one
// slot per integer of the range: it marks the values present, numbers
// the marks in order — their numbers are the codes, the marked integers
// the dictionary — and reads each row's code from its value's slot.
// slots is working space, zero on entry and left zero.
func sealCounting(v *ColVec, vals []rowValue[int64], lo int64, slots []uint16, codes []uint16) []int64 {
	distinct := 0
	for _, e := range vals {
		s := &slots[uint64(e.v)-uint64(lo)]
		if *s == 0 {
			*s = 1
			distinct++
		}
	}
	dict := make([]int64, 0, distinct)
	for i, s := range slots {
		if s != 0 {
			slots[i] = uint16(len(dict))
			dict = append(dict, lo+int64(i))
		}
	}
	clear(codes) // a NULL row's code
	for _, e := range vals {
		codes[e.row] = slots[uint64(e.v)-uint64(lo)]
	}
	clear(slots)
	setCodes(v, codes, len(dict))
	return dict
}

// compareFloatBits is the dictionary order of a FLOAT column:
// value.Compare's, then — for the pairs it ties, ±0 and NaN payloads —
// the bits, so that two entries are the same entry only when they are
// the same float.
func compareFloatBits(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
}

// sealDict sorts a column's non-NULL values by order — a total order in
// which only identical values are equal — returns the distinct ones and
// stores every row's position among them as v's codes, exactly sized.
// codes is working space, one per row of the group.
func sealDict[T any](v *ColVec, vals []rowValue[T], codes []uint16, order func(a, b rowValue[T]) int) []T {
	if len(vals) == 0 {
		return nil
	}
	slices.SortFunc(vals, order)
	clear(codes) // a NULL row's code
	last := 0
	for j, e := range vals {
		if j > 0 && order(vals[j-1], e) != 0 {
			last++
		}
		codes[e.row] = uint16(last)
	}
	dict := make([]T, last+1)
	for _, e := range vals {
		dict[codes[e.row]] = e.v
	}
	setCodes(v, codes, len(dict))
	return dict
}

// setCodes stores codes as v's, cut to the narrowest width that holds
// positions in a dictionary of n entries.
func setCodes(v *ColVec, codes []uint16, n int) {
	if n <= 1<<8 {
		v.codes8 = make([]uint8, len(codes))
		for i, c := range codes {
			v.codes8[i] = uint8(c)
		}
	} else {
		v.codes16 = make([]uint16, len(codes))
		copy(v.codes16, codes)
	}
}

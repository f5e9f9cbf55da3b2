// Package stats builds per-column statistics (exact frequent-value
// counts for low-cardinality columns, equi-depth histograms otherwise)
// and estimates the selectivity of AND/OR predicate expressions. The
// optimizer uses these estimates for access-path selection — the paper's
// premise is that upper-envelope predicates only pay off when their
// estimated selectivity is low enough to make an index attractive.
//
// A build keeps nothing per row for a column that stays exact, and counts
// its values in a map of the column's kind, not by hashing Values. A
// column that passes MaxExactDistinct distinct values spills into a slice
// of its schema kind ([]int64 for INT and BOOL, []float64, []string), and
// its histogram comes from sorting that slice with the kind's own order,
// not from comparing Values — an INT column of a narrow span by counting.
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/value"
)

// MaxExactDistinct is the number of distinct values a column may have
// before exact value counts are abandoned in favour of a histogram.
const MaxExactDistinct = 512

// NumBuckets is the number of equi-depth histogram buckets.
const NumBuckets = 64

// ValueCount pairs a value with its occurrence count.
type ValueCount struct {
	Val   value.Value
	Count int64
}

// Bucket is one equi-depth histogram bucket covering [Lo, Hi].
type Bucket struct {
	Lo, Hi value.Value
	Count  int64
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	Count     int64 // non-null values
	NullCount int64
	Distinct  int64
	// Exact holds exact per-value counts when the column stayed within
	// MaxExactDistinct distinct values; nil otherwise.
	Exact []ValueCount
	// Hist is the equi-depth histogram, built only when Exact is nil.
	Hist []Bucket
}

// TableStats summarizes a table.
type TableStats struct {
	RowCount int64
	Cols     map[string]*ColumnStats
}

// builder accumulates one column during a build pass. While the column
// holds at most MaxExactDistinct distinct values it keeps their exact
// counts and nothing else: exact holds each distinct value as first seen,
// with its count, and one map of the column's kind finds its entry — by
// the integer for INT and BOOL (0/1), by the canonical float bits for
// FLOAT (-0 counts as 0, every NaN as one NaN, the values value.Compare
// ties), by the string for TEXT. The value past that bound spills the
// counts into a slice of the column's kind — ints, floats, strs — each
// value repeated as often as it was counted, and from then on every value
// is appended to that slice raw; finish sorts it into the histogram.
type builder struct {
	kind     value.Kind
	rows     int64        // rows the build expects: the spill slice's capacity
	exact    []ValueCount // first-seen values and their counts, until spilled
	intIdx   map[int64]int32
	floatIdx map[uint64]int32
	strIdx   map[string]int32
	spilled  bool
	count    int64
	nulls    int64
	ints     []int64
	floats   []float64
	strs     []string
}

func newBuilder(kind value.Kind, rows int64) *builder {
	b := &builder{kind: kind, rows: rows}
	switch kind {
	case value.KindFloat:
		b.floatIdx = make(map[uint64]int32)
	case value.KindString:
		b.strIdx = make(map[string]int32)
	default:
		b.intIdx = make(map[int64]int32)
	}
	return b
}

func (b *builder) add(v value.Value) {
	if v.IsNull() {
		b.nulls++
		return
	}
	b.count++
	if b.spilled {
		b.spill(v)
		return
	}
	switch b.kind {
	case value.KindFloat:
		countIn(b, b.floatIdx, floatKey(v.AsFloat()), v)
	case value.KindString:
		countIn(b, b.strIdx, v.AsString(), v)
	default:
		countIn(b, b.intIdx, intOf(v), v)
	}
}

// countIn counts v, whose key in idx is k.
func countIn[K comparable](b *builder, idx map[K]int32, k K, v value.Value) {
	if i, ok := idx[k]; ok {
		b.exact[i].Count++
		return
	}
	idx[k] = int32(len(b.exact))
	b.exact = append(b.exact, ValueCount{Val: v, Count: 1})
	if len(b.exact) > MaxExactDistinct {
		b.expand()
	}
}

// intOf is the integer an INT or BOOL column keeps of v: the INT, or a
// BOOL's 0/1.
func intOf(v value.Value) int64 {
	if v.Kind() == value.KindBool {
		if v.AsBool() {
			return 1
		}
		return 0
	}
	return v.AsInt()
}

// floatKey is f's bits with the floats value.Compare ties made one:
// -0 is 0, and every NaN is one NaN.
func floatKey(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// expand abandons the exact counts: every value counted so far goes into
// the spill slice, sized for the rows the build expects (or the values
// seen, should the store have grown since it was counted).
func (b *builder) expand() {
	n := max(b.rows, b.count)
	switch b.kind {
	case value.KindFloat:
		b.floats = make([]float64, 0, n)
	case value.KindString:
		b.strs = make([]string, 0, n)
	default:
		b.ints = make([]int64, 0, n)
	}
	b.spilled = true
	for _, vc := range b.exact {
		for i := int64(0); i < vc.Count; i++ {
			b.spill(vc.Val)
		}
	}
	b.exact, b.intIdx, b.floatIdx, b.strIdx = nil, nil, nil, nil
}

// spill appends v to the slice of the column's kind (an INT widens into a
// FLOAT column).
func (b *builder) spill(v value.Value) {
	switch b.kind {
	case value.KindFloat:
		b.floats = append(b.floats, v.AsFloat())
	case value.KindString:
		b.strs = append(b.strs, v.AsString())
	default:
		b.ints = append(b.ints, intOf(v))
	}
}

func (b *builder) finish() *ColumnStats {
	cs := &ColumnStats{Count: b.count, NullCount: b.nulls}
	if !b.spilled {
		cs.Exact = b.exact
		slices.SortFunc(cs.Exact, func(x, y ValueCount) int { return value.Compare(x.Val, y.Val) })
		cs.Distinct = int64(len(cs.Exact))
		return cs
	}
	switch b.kind {
	case value.KindInt: // a BOOL column never spills
		sortInts(b.ints)
		histogram(cs, b.ints, value.Int)
	case value.KindFloat:
		slices.Sort(b.floats)
		histogram(cs, b.floats, value.Float)
	case value.KindString:
		slices.Sort(b.strs)
		histogram(cs, b.strs, value.Str)
	}
	return cs
}

// sortInts sorts a spilled INT column and reports whether it counted.
// When its values span fewer than 2 × its length integers it counts
// them, one slot per integer of the span, and writes them back in order,
// which needs no comparison; otherwise it sorts them.
func sortInts(vals []int64) (counted bool) {
	lo, hi := slices.Min(vals), slices.Max(vals)
	// hi-lo wraps past MaxInt64, but as a uint64 it is the exact width:
	// a column spanning MinInt64..MaxInt64 is 2^64-1 wide, not negative.
	span := uint64(hi) - uint64(lo)
	if span >= 2*uint64(len(vals)) {
		slices.Sort(vals)
		return false
	}
	counts := make([]int32, span+1)
	for _, x := range vals {
		counts[uint64(x)-uint64(lo)]++
	}
	i := 0
	for off, c := range counts {
		for x := lo + int64(off); c > 0; c-- {
			vals[i] = x
			i++
		}
	}
	return true
}

// histogram sets cs's equi-depth buckets and distinct count from a
// spilled column's sorted values. Within one kind cmp.Compare orders and
// ties values as value.Compare does: a NaN below every number and equal
// to every NaN, -0.0 equal to 0.0. A bucket bound is one member of such a
// tie, as it was of the Values the column held.
func histogram[T cmp.Ordered](cs *ColumnStats, vals []T, box func(T) value.Value) {
	per := (len(vals) + NumBuckets - 1) / NumBuckets
	cs.Hist = make([]Bucket, 0, (len(vals)+per-1)/per)
	for start := 0; start < len(vals); start += per {
		end := min(start+per, len(vals))
		cs.Hist = append(cs.Hist, Bucket{Lo: box(vals[start]), Hi: box(vals[end-1]), Count: int64(end - start)})
	}
	for i := range vals {
		if i == 0 || cmp.Compare(vals[i], vals[i-1]) != 0 {
			cs.Distinct++
		}
	}
}

// Build computes table statistics from a row source. scan must call the
// callback once per row; the tuple it is given is valid only during that
// call (the builder copies what it keeps), so a scan may decode every row
// into one reused tuple. Every non-NULL value must be of its column's
// kind, or an INT in a FLOAT column. rows is the number of rows the scan
// is expected to deliver (a store's live count), the capacity a column
// that spills to a histogram reserves; 0 when unknown.
func Build(schema *value.Schema, rows int64, scan func(func(value.Tuple))) *TableStats {
	builders := make([]*builder, schema.Len())
	for i := range builders {
		builders[i] = newBuilder(schema.Col(i).Kind, rows)
	}
	var n int64
	scan(func(t value.Tuple) {
		n++
		for i := range builders {
			builders[i].add(t[i])
		}
	})
	ts := &TableStats{RowCount: n, Cols: make(map[string]*ColumnStats, schema.Len())}
	for i, b := range builders {
		ts.Cols[normalize(schema.Col(i).Name)] = b.finish()
	}
	return ts
}

func normalize(s string) string {
	b := []byte(s)
	for i := range b {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// Col returns the stats for the named column (case-insensitive), or nil.
func (ts *TableStats) Col(name string) *ColumnStats {
	return ts.Cols[normalize(name)]
}

// eqFraction estimates the fraction of rows with column value v.
func (cs *ColumnStats) eqFraction(v value.Value, rows int64) float64 {
	if rows == 0 || cs == nil {
		return 0
	}
	if cs.Exact != nil {
		i := sort.Search(len(cs.Exact), func(i int) bool {
			return value.Compare(cs.Exact[i].Val, v) >= 0
		})
		if i < len(cs.Exact) && value.Equal(cs.Exact[i].Val, v) {
			return float64(cs.Exact[i].Count) / float64(rows)
		}
		return 0
	}
	if cs.Distinct > 0 {
		return float64(cs.Count) / float64(cs.Distinct) / float64(rows)
	}
	return 0
}

// rangeFraction estimates the fraction of rows whose column value lies
// in iv.
func (cs *ColumnStats) rangeFraction(iv interval.Interval, rows int64) float64 {
	if rows == 0 || cs == nil || cs.Count == 0 {
		return 0
	}
	if cs.Exact != nil {
		var n int64
		for _, vc := range cs.Exact {
			if iv.Contains(vc.Val) {
				n += vc.Count
			}
		}
		return float64(n) / float64(rows)
	}
	lo, _, hasLo := iv.Lo()
	hi, _, hasHi := iv.Hi()
	var n float64
	for _, bk := range cs.Hist {
		loIn, hiIn := iv.Contains(bk.Lo), iv.Contains(bk.Hi)
		switch {
		case loIn && hiIn:
			n += float64(bk.Count)
		case !loIn && !hiIn:
			// Bucket may still straddle the range interior.
			if hasLo && hasHi &&
				value.Compare(bk.Lo, lo) < 0 && value.Compare(bk.Hi, hi) > 0 {
				n += float64(bk.Count) * interp(lo, hi, bk)
			}
		default:
			// Partial overlap: linear interpolation over the bucket span.
			l, h := bk.Lo, bk.Hi
			if hasLo && value.Compare(lo, l) > 0 {
				l = lo
			}
			if hasHi && value.Compare(hi, h) < 0 {
				h = hi
			}
			n += float64(bk.Count) * interp(l, h, bk)
		}
	}
	return n / float64(rows)
}

// interp returns the fraction of bucket bk spanned by [l, h], assuming a
// uniform distribution over numeric buckets; non-numeric buckets return
// a half-bucket guess.
func interp(l, h value.Value, bk Bucket) float64 {
	if bk.Lo.Kind() == value.KindString || bk.Hi.Kind() == value.KindString {
		return 0.5
	}
	span := bk.Hi.AsFloat() - bk.Lo.AsFloat()
	if span <= 0 {
		// Singleton bucket: it contributes fully iff its single value
		// lies within [l, h]. Returning 1 unconditionally here would
		// count the whole bucket even for a disjoint (or inverted, e.g.
		// x > 10 AND x < 5) range.
		v := bk.Lo.AsFloat()
		if l.AsFloat() <= v && v <= h.AsFloat() {
			return 1
		}
		return 0
	}
	f := (h.AsFloat() - l.AsFloat()) / span
	switch {
	case f > 1:
		return 1
	case f >= 0:
		return f
	}
	// Negative, or NaN: a NaN or infinite bound spans no measurable part.
	return 0
}

// Selectivity estimates the fraction of rows satisfying e. Unknown
// constructs contribute the conventional default of 1/3.
func (ts *TableStats) Selectivity(e expr.Expr) float64 {
	const defaultSel = 1.0 / 3.0
	if ts == nil {
		return defaultSel
	}
	switch x := e.(type) {
	case expr.TrueExpr:
		return 1
	case expr.FalseExpr:
		return 0
	case expr.Cmp:
		cs := ts.Col(x.Col)
		if cs == nil {
			return defaultSel
		}
		switch x.Op {
		case expr.OpEq:
			return cs.eqFraction(x.Val, ts.RowCount)
		case expr.OpNe:
			return clamp(nonNull(cs, ts.RowCount) - cs.eqFraction(x.Val, ts.RowCount))
		}
		iv, ok := x.Interval()
		if !ok {
			// A NULL literal: the comparison is false for every row.
			return 0
		}
		return cs.rangeFraction(iv, ts.RowCount)
	case expr.In:
		cs := ts.Col(x.Col)
		if cs == nil {
			return defaultSel
		}
		var s float64
		for _, v := range DedupeValues(x.Vals) {
			s += cs.eqFraction(v, ts.RowCount)
		}
		return clamp(s)
	case expr.And:
		return ts.andSelectivity(x.Kids)
	case expr.Or:
		s := 0.0
		for _, k := range x.Kids {
			sk := ts.Selectivity(k)
			s = s + sk - s*sk
		}
		return clamp(s)
	case expr.Not:
		return clamp(1 - ts.Selectivity(x.Kid))
	}
	return defaultSel
}

// DedupeValues returns vals with duplicates (by value.Equal) removed,
// preserving first-occurrence order. IN-list estimation sums per-value
// contributions, so a literal like IN (1, 1, 1) must collapse to one
// value first. It is not interval.NewCuts, which sorts: Selectivity sums
// float fractions in this order, and another order could move a cost
// estimate in its last digit.
func DedupeValues(vals []value.Value) []value.Value {
	if len(vals) < 2 {
		return vals
	}
	out := make([]value.Value, 0, len(vals))
	for _, v := range vals {
		dup := false
		for _, u := range out {
			if value.Equal(u, v) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// andSelectivity estimates a conjunction, intersecting range conditions
// that constrain the same column before applying the independence
// assumption across columns and residual conditions.
func (ts *TableStats) andSelectivity(kids []expr.Expr) float64 {
	ranges := map[string]interval.Interval{}
	var order []string
	var residual []expr.Expr
	for _, k := range kids {
		c, ok := k.(expr.Cmp)
		iv, bounded := c.Interval()
		if !ok || !bounded || c.Op == expr.OpEq {
			residual = append(residual, k)
			continue
		}
		col := normalize(c.Col)
		cur, seen := ranges[col]
		if !seen {
			order = append(order, col)
		}
		ranges[col] = cur.Intersect(iv)
	}
	s := 1.0
	for _, col := range order {
		cs := ts.Cols[col]
		if cs == nil {
			s *= 1.0 / 3.0
			continue
		}
		s *= cs.rangeFraction(ranges[col], ts.RowCount)
	}
	for _, k := range residual {
		s *= ts.Selectivity(k)
	}
	return clamp(s)
}

func nonNull(cs *ColumnStats, rows int64) float64 {
	if rows == 0 {
		return 0
	}
	return float64(cs.Count) / float64(rows)
}

func clamp(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

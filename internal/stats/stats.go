// Package stats builds per-column statistics (exact frequent-value
// counts for low-cardinality columns, equi-depth histograms otherwise)
// and estimates the selectivity of AND/OR predicate expressions. The
// optimizer uses these estimates for access-path selection — the paper's
// premise is that upper-envelope predicates only pay off when their
// estimated selectivity is low enough to make an index attractive.
//
// A build keeps nothing per row for a column that stays exact. A column
// that passes MaxExactDistinct distinct values spills into a slice of its
// schema kind ([]int64 for INT and BOOL, []float64, []string), and its
// histogram comes from sorting that slice with the kind's own order, not
// from comparing Values.
package stats

import (
	"cmp"
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
	Lo, Hi   value.Value
	Count    int64
	Distinct int64
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
	Min  value.Value
	Max  value.Value
}

// TableStats summarizes a table.
type TableStats struct {
	RowCount int64
	Cols     map[string]*ColumnStats
}

// builder accumulates one column during a build pass. While the column
// holds at most MaxExactDistinct distinct values it keeps their exact
// counts and nothing else. The value past that bound spills the counts
// into a slice of the column's kind — ints for INT and BOOL (0/1), floats,
// strs — each value repeated as often as it was counted, and from then on
// every value is appended to that slice raw; finish sorts it into the
// histogram.
type builder struct {
	kind     value.Kind
	rows     int64                   // rows the build expects: the spill slice's capacity
	exact    map[uint64][]ValueCount // hash -> values (collision chain); nil once spilled
	distinct int
	count    int64
	nulls    int64
	min, max value.Value
	ints     []int64
	floats   []float64
	strs     []string
}

func newBuilder(kind value.Kind, rows int64) *builder {
	return &builder{kind: kind, rows: rows, exact: make(map[uint64][]ValueCount)}
}

func (b *builder) add(v value.Value) {
	if v.IsNull() {
		b.nulls++
		return
	}
	b.count++
	if b.count == 1 {
		b.min, b.max = v, v
	} else {
		if value.Compare(v, b.min) < 0 {
			b.min = v
		}
		if value.Compare(v, b.max) > 0 {
			b.max = v
		}
	}
	if b.exact == nil {
		b.spill(v)
		return
	}
	h := v.Hash()
	chain := b.exact[h]
	for i := range chain {
		if value.Equal(chain[i].Val, v) {
			chain[i].Count++
			return
		}
	}
	b.exact[h] = append(chain, ValueCount{Val: v, Count: 1})
	b.distinct++
	if b.distinct > MaxExactDistinct {
		b.expand()
	}
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
	for _, chain := range b.exact {
		for _, vc := range chain {
			for i := int64(0); i < vc.Count; i++ {
				b.spill(vc.Val)
			}
		}
	}
	b.exact = nil
}

// spill appends v to the slice of the column's kind (an INT widens into a
// FLOAT column).
func (b *builder) spill(v value.Value) {
	switch b.kind {
	case value.KindInt:
		b.ints = append(b.ints, v.AsInt())
	case value.KindBool:
		var x int64
		if v.AsBool() {
			x = 1
		}
		b.ints = append(b.ints, x)
	case value.KindFloat:
		b.floats = append(b.floats, v.AsFloat())
	case value.KindString:
		b.strs = append(b.strs, v.AsString())
	}
}

func (b *builder) finish() *ColumnStats {
	cs := &ColumnStats{Count: b.count, NullCount: b.nulls, Min: b.min, Max: b.max}
	if b.exact != nil {
		for _, chain := range b.exact {
			cs.Exact = append(cs.Exact, chain...)
		}
		sort.Slice(cs.Exact, func(i, j int) bool {
			return value.Compare(cs.Exact[i].Val, cs.Exact[j].Val) < 0
		})
		cs.Distinct = int64(len(cs.Exact))
		return cs
	}
	switch b.kind {
	case value.KindInt:
		histogram(cs, b.ints, value.Int)
	case value.KindBool:
		histogram(cs, b.ints, func(x int64) value.Value { return value.Bool(x != 0) })
	case value.KindFloat:
		histogram(cs, b.floats, value.Float)
	case value.KindString:
		histogram(cs, b.strs, value.Str)
	}
	return cs
}

// histogram sorts a spilled column's values and sets cs's equi-depth
// buckets and distinct count. Within one kind cmp.Compare orders and ties
// values as value.Compare does: a NaN below every number and equal to
// every NaN, -0.0 equal to 0.0. A bucket bound is one member of such a
// tie, as it was of the Values the column held.
func histogram[T cmp.Ordered](cs *ColumnStats, vals []T, box func(T) value.Value) {
	slices.Sort(vals)
	per := (len(vals) + NumBuckets - 1) / NumBuckets
	cs.Hist = make([]Bucket, 0, (len(vals)+per-1)/per)
	for start := 0; start < len(vals); start += per {
		end := min(start+per, len(vals))
		bk := Bucket{Lo: box(vals[start]), Hi: box(vals[end-1]), Count: int64(end - start)}
		for i := start; i < end; i++ {
			fresh := i == 0 || cmp.Compare(vals[i], vals[i-1]) != 0
			if fresh {
				cs.Distinct++
			}
			if fresh || i == start {
				bk.Distinct++
			}
		}
		cs.Hist = append(cs.Hist, bk)
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

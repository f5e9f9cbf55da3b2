package stats

import (
	"sort"

	"minequery/internal/value"
)

// DedupeValues returns vals with duplicates (by value.Equal) removed,
// preserving first-occurrence order. IN-list estimation and partition
// pruning both sum or union per-value contributions, so a literal like
// IN (1, 1, 1) must collapse to one value first. It is not
// interval.NewCuts, which sorts: Selectivity sums float fractions in this
// order, and another order could move a cost estimate in its last digit.
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

// Merge combines per-partition table statistics into table-level
// statistics. Row and null counts sum exactly, and min/max are the
// extremes across partitions. Exact per-value counts survive the merge
// when the union stays within MaxExactDistinct distinct values;
// otherwise the merged column falls back to the concatenation of the
// per-partition histogram buckets (exact counts are first grouped into
// equi-depth buckets). Buckets from different partitions may overlap in
// value space — the estimators tolerate that, since every fraction is
// computed per bucket and summed. Distinct counts are summed and capped
// at the value count: an upper bound, as partitions may share values.
func Merge(parts []*TableStats) *TableStats {
	parts = nonNilStats(parts)
	if len(parts) == 0 {
		return &TableStats{Cols: map[string]*ColumnStats{}}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	out := &TableStats{Cols: map[string]*ColumnStats{}}
	var names []string
	for _, p := range parts {
		out.RowCount += p.RowCount
		for name := range p.Cols {
			if _, ok := out.Cols[name]; !ok {
				out.Cols[name] = nil
				names = append(names, name)
			}
		}
	}
	for _, name := range names {
		var cols []*ColumnStats
		for _, p := range parts {
			if c := p.Cols[name]; c != nil {
				cols = append(cols, c)
			}
		}
		out.Cols[name] = mergeColumn(cols)
	}
	return out
}

func nonNilStats(parts []*TableStats) []*TableStats {
	out := parts[:0:0]
	for _, p := range parts {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

func mergeColumn(cols []*ColumnStats) *ColumnStats {
	out := &ColumnStats{}
	for _, c := range cols {
		out.Count += c.Count
		out.NullCount += c.NullCount
		if c.Count == 0 {
			continue
		}
		if out.Min.IsNull() || value.Compare(c.Min, out.Min) < 0 {
			out.Min = c.Min
		}
		if out.Max.IsNull() || value.Compare(c.Max, out.Max) > 0 {
			out.Max = c.Max
		}
	}
	if mergeExact(out, cols) {
		return out
	}
	// Histogram fallback: concatenate per-partition buckets, ordered by
	// their lower bound for readability (order does not affect the
	// estimators, which sum over all buckets).
	for _, c := range cols {
		if c.Exact != nil {
			out.Hist = append(out.Hist, exactToBuckets(c.Exact)...)
		} else {
			out.Hist = append(out.Hist, c.Hist...)
		}
		out.Distinct += c.Distinct
	}
	sort.SliceStable(out.Hist, func(i, j int) bool {
		return value.Compare(out.Hist[i].Lo, out.Hist[j].Lo) < 0
	})
	if out.Distinct > out.Count {
		out.Distinct = out.Count
	}
	return out
}

// mergeExact attempts an exact merge of the per-partition value counts
// into out. It reports false — leaving out untouched — when any input
// column lacks exact counts or the union exceeds MaxExactDistinct.
func mergeExact(out *ColumnStats, cols []*ColumnStats) bool {
	for _, c := range cols {
		if c.Count > 0 && c.Exact == nil {
			return false
		}
	}
	var merged []ValueCount
	for _, c := range cols {
		for _, vc := range c.Exact {
			i := sort.Search(len(merged), func(i int) bool {
				return value.Compare(merged[i].Val, vc.Val) >= 0
			})
			if i < len(merged) && value.Equal(merged[i].Val, vc.Val) {
				merged[i].Count += vc.Count
				continue
			}
			if len(merged) >= MaxExactDistinct {
				return false
			}
			merged = append(merged, ValueCount{})
			copy(merged[i+1:], merged[i:])
			merged[i] = vc
		}
	}
	out.Exact = merged
	out.Distinct = int64(len(merged))
	return true
}

// exactToBuckets lowers sorted exact value counts to equi-depth
// histogram buckets, used when a partition with exact counts merges
// with one that spilled to a histogram.
func exactToBuckets(exact []ValueCount) []Bucket {
	if len(exact) == 0 {
		return nil
	}
	var total int64
	for _, vc := range exact {
		total += vc.Count
	}
	per := total / NumBuckets
	if per < 1 {
		per = 1
	}
	var out []Bucket
	cur := Bucket{Lo: exact[0].Val}
	for i, vc := range exact {
		cur.Hi = vc.Val
		cur.Count += vc.Count
		cur.Distinct++
		if cur.Count >= per || i == len(exact)-1 {
			out = append(out, cur)
			if i < len(exact)-1 {
				cur = Bucket{Lo: exact[i+1].Val}
			}
		}
	}
	return out
}

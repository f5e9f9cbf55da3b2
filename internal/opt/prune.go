// Partition pruning: a range partition whose boundary interval cannot
// intersect the rewritten predicate (upper envelope ∧ data predicate)
// holds no qualifying rows and need not be read at all. This extends the
// paper's envelope exploitation from access-path choice to I/O
// elimination — `predict(x) = c` implies `U_c(x)`, so a partition
// disjoint from U_c's region is skippable without consulting the model.
//
// The walk is conservative: every construct it cannot reason about
// keeps all partitions, so pruning never changes query results, only
// how many pages are touched. OR-of-regions envelopes (clustering,
// k-anonymous regions) prune via the per-disjunct union — no DNF
// normalization is required.
package opt

import (
	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/value"
)

// PrunePartitions returns the partitions of t that may hold rows
// satisfying pred, in ascending order, plus the table's partition
// count. For unpartitioned tables it returns (nil, 0).
func PrunePartitions(t *catalog.Table, pred expr.Expr) (parts []int, total int) {
	if t.Part == nil {
		return nil, 0
	}
	keep := PruneSpec(t.Part, pred)
	out := make([]int, 0, len(keep))
	for p, ok := range keep {
		if ok {
			out = append(out, p)
		}
	}
	return out, t.Part.NumPartitions()
}

// PruneSpec returns, per partition of spec, whether it may hold a row
// satisfying pred: PruneWalk with the range leaf, which intersects a
// comparison on the partition column with each partition's boundary
// interval. The cluster coordinator reuses this to prune whole shards:
// a range shard map is just a PartitionSpec whose "partitions" are
// nodes, and the same interval intersection that skips a partition's
// pages skips a shard's network round-trip.
func PruneSpec(spec *catalog.PartitionSpec, pred expr.Expr) []bool {
	n, col := spec.NumPartitions(), norm(spec.Column)
	return PruneWalk(n, pred, func(c string, op expr.CmpOp, vals []value.Value) []bool {
		if c != col {
			return nil
		}
		switch op {
		case expr.OpEq:
			keep := make([]bool, n)
			for _, v := range vals {
				keep[spec.PartitionFor(v)] = true
			}
			return keep
		case expr.OpLt:
			return overlapParts(spec, nil, false, &vals[0], false)
		case expr.OpLe:
			return overlapParts(spec, nil, false, &vals[0], true)
		case expr.OpGt:
			return overlapParts(spec, &vals[0], false, nil, false)
		case expr.OpGe:
			return overlapParts(spec, &vals[0], true, nil, false)
		}
		// OpNe constrains almost nothing at partition granularity.
		return nil
	})
}

// PruneWalk returns, per bucket 0..n-1 of some placement of rows
// (partitions, shards), whether the bucket may hold a row satisfying e.
// And intersects, Or unions, and a comparison is decided by leaf, which
// knows the placement: it gets the lowercased column, the operator and
// the literals — one for a Cmp; an In arrives as OpEq over its list, any
// of which may match — and returns the buckets that may hold a match,
// or nil when the comparison does not constrain the placement (another
// column, an operator it cannot use). NULL literals never reach leaf:
// a comparison against NULL is false for every row (see expr.Cmp.Eval).
func PruneWalk(n int, e expr.Expr, leaf func(col string, op expr.CmpOp, vals []value.Value) []bool) []bool {
	var keep []bool
	switch x := e.(type) {
	case expr.FalseExpr:
		return make([]bool, n)
	case expr.And:
		keep = allParts(n)
		for _, k := range x.Kids {
			kk := PruneWalk(n, k, leaf)
			for i := range keep {
				keep[i] = keep[i] && kk[i]
			}
		}
	case expr.Or:
		keep = make([]bool, n)
		for _, k := range x.Kids {
			kk := PruneWalk(n, k, leaf)
			for i := range keep {
				keep[i] = keep[i] || kk[i]
			}
		}
	case expr.Cmp:
		if x.Val.IsNull() {
			return make([]bool, n)
		}
		keep = leaf(norm(x.Col), x.Op, []value.Value{x.Val})
	case expr.In:
		vals := make([]value.Value, 0, len(x.Vals))
		for _, v := range x.Vals {
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		keep = leaf(norm(x.Col), expr.OpEq, vals)
	}
	if keep == nil {
		// An unconstraining leaf, TrueExpr, Not (NULL semantics make
		// negation non-invertible at interval granularity), ColCmp, and
		// anything unknown: keep all.
		return allParts(n)
	}
	return keep
}

func allParts(n int) []bool {
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	return keep
}

// overlapParts marks the partitions whose boundary interval [plo, phi)
// intersects the predicate interval (ilo, ihi) with the given bound
// inclusivities (nil bound = unbounded).
func overlapParts(spec *catalog.PartitionSpec, ilo *value.Value, iloInc bool, ihi *value.Value, ihiInc bool) []bool {
	n := spec.NumPartitions()
	keep := make([]bool, n)
	for p := 0; p < n; p++ {
		plo, phi := spec.Interval(p)
		keep[p] = intervalOverlaps(ilo, iloInc, ihi, ihiInc, plo, phi)
	}
	return keep
}

// intervalOverlaps reports whether the predicate interval and a
// partition interval [plo, phi) — lower inclusive, upper exclusive —
// can share a point. value.Compare handles cross-kind numerics, so
// float envelope cut points test correctly against integer bounds.
func intervalOverlaps(ilo *value.Value, iloInc bool, ihi *value.Value, ihiInc bool, plo, phi *value.Value) bool {
	if ihi != nil && plo != nil {
		c := value.Compare(*ihi, *plo)
		if c < 0 || (c == 0 && !ihiInc) {
			return false
		}
	}
	if ilo != nil && phi != nil {
		// phi is exclusive: a predicate starting at or beyond it misses.
		if value.Compare(*ilo, *phi) >= 0 {
			return false
		}
	}
	return true
}

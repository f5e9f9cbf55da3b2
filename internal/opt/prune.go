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
	"minequery/internal/interval"
	"minequery/internal/value"
)

// PrunePartitions returns the partitions of t that may hold rows
// satisfying pred, in ascending order, plus the table's partition
// count. For unpartitioned tables it returns (nil, 0).
func PrunePartitions(t *catalog.Table, pred expr.Expr) (parts []int, total int) {
	if t.Part == nil {
		return nil, 0
	}
	keep := PruneSpec(t.Part.Column, t.Part.Bounds, pred)
	out := make([]int, 0, len(keep))
	for p, ok := range keep {
		if ok {
			out = append(out, p)
		}
	}
	return out, t.Part.NumPartitions()
}

// PruneSpec returns, per segment of cuts over column, whether it may
// hold a row satisfying pred: PruneWalk with the range leaf, which asks
// cuts for the segments a comparison on column can touch. Partitions,
// range shards and the standing index's constant segments are all cuts,
// so the stab that skips a partition's pages is the one that skips a
// shard's round-trip or a subscription's evaluation.
func PruneSpec(column string, cuts interval.Cuts, pred expr.Expr) []bool {
	n, col := cuts.Segments(), norm(column)
	return PruneWalk(n, pred, func(c string, op expr.CmpOp, vals []value.Value) []bool {
		if c != col {
			return nil
		}
		keep := make([]bool, n)
		if op == expr.OpEq {
			for _, v := range vals {
				keep[cuts.Stab(v)] = true
			}
			return keep
		}
		iv, ok := expr.Cmp{Op: op, Val: vals[0]}.Interval()
		if !ok {
			// OpNe constrains almost nothing at segment granularity.
			return nil
		}
		for p, last := cuts.Span(iv); p <= last; p++ {
			keep[p] = true
		}
		return keep
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

// norm lowercases the ASCII letters of a column name, as the leaves of
// PruneWalk receive it.
func norm(s string) string {
	b := []byte(s)
	for i := range b {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

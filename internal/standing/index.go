package standing

// The (column, interval) subscription index, one per part of a table's
// set (see part). The distinct constants that the part's guards compare
// each data column against become that column's interval.Cuts — the
// cuts that prune partitions and shards — however many there are. A
// row's value falls in one segment of them (Stab), and a subscription
// is a candidate for the row only when, on every indexed column, its
// guard can hold in that segment. Each part's index numbers its
// subscriptions by their bits in the table's registration order, so a
// row's candidates are the OR of the two parts' bitsets.
//
// Which segments a guard can hold in is the pruning walk's answer
// (opt.PruneSpec), asked over the subscription's own cuts rather than
// the column's: its constants on the column, each followed by the next
// global cut. An own segment is then a union of global segments, and
// the segment an `=` constant or an inclusive upper bound selects is
// one global segment in both, so the own answer, spread back over the
// global segments, is exactly what the walk over the global cuts
// keeps, at a cost in the subscription's own constants. A subscription
// that keeps every segment of a column is free there; one that keeps
// some has them as runs of global segments, held in a static segment
// tree over the segments (two int32 arrays in CSR form: O(runs × log
// segments) entries), so a stab visits log S nodes and the runs on
// them. Size is linear in the set, so no column is left unindexed.
//
// Soundness is inherited from the pruning walk: a guard is a sound
// weakening of its subscription's predicate, PruneSpec keeps every
// segment the guard could hold in (conservative on everything it cannot
// reason about, with NULL filed in segment 0), so a subscription is
// skipped for a row only when its predicate provably fails on it.

import (
	"slices"

	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/opt"
	"minequery/internal/value"
)

// intervalIndex maps a row to its candidate-subscription bitset.
type intervalIndex struct {
	words int
	// full is the all-candidates bitset (trailing bits masked off).
	full []uint64
	cols []indexedCol
}

// indexedCol is one column's index: the cuts, the subscriptions free on
// the column, and the segment tree of the others' runs. Node k of the
// tree (1 <= k < 2S, S segments) holds the subscriptions
// subs[start[k]:start[k+1]]; segment s is leaf S+s, and a subscription
// keeps s when it sits on a node of the leaf's path to the root.
type indexedCol struct {
	ord   int
	cuts  interval.Cuts
	free  []uint64
	start []int32
	subs  []int32
}

// run is a subscription's kept segments lo..hi on one column.
type run struct{ sub, lo, hi int32 }

// buildIndex constructs the interval index over one part's compiled
// subscriptions, in bitsets of the given number of words.
func buildIndex(schema *value.Schema, subs []*compiledSub, words int) *intervalIndex {
	ix := &intervalIndex{words: words}
	ix.full = make([]uint64, ix.words)
	for _, cs := range subs {
		ix.full[cs.bit/64] |= 1 << (cs.bit % 64)
	}
	perCol := make([]int, schema.Len())
	for _, cs := range subs {
		eachConstant(cs.guard, schema, func(ord int, _ value.Value) { perCol[ord]++ })
	}
	var own []value.Value
	var runs []run
	for ord, count := range perCol {
		if count == 0 {
			continue
		}
		vals := make([]value.Value, 0, count)
		for _, cs := range subs {
			eachConstant(cs.guard, schema, func(o int, v value.Value) {
				if o == ord {
					vals = append(vals, v)
				}
			})
		}
		cuts := interval.NewCuts(vals)
		name := schema.Col(ord).Name
		free := make([]uint64, ix.words)
		runs = runs[:0]
		for _, cs := range subs {
			i := cs.bit
			own = own[:0]
			eachConstant(cs.guard, schema, func(o int, v value.Value) {
				if o == ord {
					own = append(own, v)
					if k := cuts.Stab(v); k < len(cuts) {
						own = append(own, cuts[k])
					}
				}
			})
			// Without a constant on the column, the walk keeps every
			// segment unless a leaf it decides without one says otherwise.
			if len(own) == 0 && !decidedWithoutConstants(cs.guard) {
				free[i/64] |= 1 << (i % 64)
				continue
			}
			ownCuts := interval.NewCuts(own)
			keep := opt.PruneSpec(name, ownCuts, cs.guard)
			if !slices.Contains(keep, false) {
				free[i/64] |= 1 << (i % 64)
				continue
			}
			// Own segment j is global segments ownFirst(j) ..
			// ownFirst(j+1)-1, the last one ending at the last global
			// segment.
			lo := int32(-1)
			for j, ok := range keep {
				switch {
				case ok && lo < 0:
					lo = int32(ownFirst(cuts, ownCuts, j))
				case !ok && lo >= 0:
					runs = append(runs, run{sub: int32(i), lo: lo, hi: int32(ownFirst(cuts, ownCuts, j) - 1)})
					lo = -1
				}
			}
			if lo >= 0 {
				runs = append(runs, run{sub: int32(i), lo: lo, hi: int32(len(cuts))})
			}
		}
		// A column every subscription keeps everywhere prunes nothing;
		// skip the per-row stab.
		if len(runs) == 0 && slices.Equal(free, ix.full) {
			continue
		}
		c := indexedCol{ord: ord, cuts: cuts, free: free}
		c.start, c.subs = segmentTree(cuts.Segments(), runs)
		ix.cols = append(ix.cols, c)
	}
	return ix
}

// ownFirst returns the global segment own segment j starts at: the one
// after the global cut equal to own cut j-1, or 0 for j == 0. Every own
// cut is a global cut.
func ownFirst(cuts, ownCuts interval.Cuts, j int) int {
	if j == 0 {
		return 0
	}
	return cuts.Stab(ownCuts[j-1])
}

// segmentTree files each run on the O(log segs) nodes that cover it
// exactly, and returns the nodes' subscriptions in CSR form.
func segmentTree(segs int, runs []run) (start, subs []int32) {
	start = make([]int32, 2*segs+1)
	cover := func(r run, visit func(node int)) {
		for l, h := int(r.lo)+segs, int(r.hi)+segs+1; l < h; l, h = l>>1, h>>1 {
			if l&1 == 1 {
				visit(l)
				l++
			}
			if h&1 == 1 {
				h--
				visit(h)
			}
		}
	}
	for _, r := range runs {
		cover(r, func(node int) { start[node+1]++ })
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	// Fill each node at start[node], which then ends where the next node
	// begins; shifting by one restores the beginnings.
	subs = make([]int32, start[len(start)-1])
	for _, r := range runs {
		cover(r, func(node int) {
			subs[start[node]] = r.sub
			start[node]++
		})
	}
	copy(start[1:], start)
	start[0] = 0
	return start, subs
}

// decidedWithoutConstants reports whether e has a leaf the pruning walk
// decides with no constant of any column: FALSE, a comparison with
// NULL, or an IN list of NULLs alone.
func decidedWithoutConstants(e expr.Expr) bool {
	switch x := e.(type) {
	case expr.FalseExpr:
		return true
	case expr.And:
		return slices.ContainsFunc(x.Kids, decidedWithoutConstants)
	case expr.Or:
		return slices.ContainsFunc(x.Kids, decidedWithoutConstants)
	case expr.Cmp:
		return x.Val.IsNull()
	case expr.In:
		return !slices.ContainsFunc(x.Vals, func(v value.Value) bool { return !v.IsNull() })
	}
	return false
}

// candidates fills out (len == words) with the bitset of subscriptions
// that may match row; scratch (len == words) is overwritten.
func (ix *intervalIndex) candidates(row value.Tuple, out, scratch []uint64) {
	copy(out, ix.full)
	for i := range ix.cols {
		c := &ix.cols[i]
		copy(scratch, c.free)
		for k := c.cuts.Segments() + c.cuts.Stab(row[c.ord]); k > 0; k >>= 1 {
			for _, s := range c.subs[c.start[k]:c.start[k+1]] {
				scratch[s/64] |= 1 << (s % 64)
			}
		}
		for w := range out {
			out[w] &= scratch[w]
		}
	}
}

// eachConstant calls f with every constant a pure-data comparison atom
// in e tests a schema column against. NULL literals never match any row
// and contribute nothing.
func eachConstant(e expr.Expr, schema *value.Schema, f func(ord int, v value.Value)) {
	switch x := e.(type) {
	case expr.And:
		for _, k := range x.Kids {
			eachConstant(k, schema, f)
		}
	case expr.Or:
		for _, k := range x.Kids {
			eachConstant(k, schema, f)
		}
	case expr.Not:
		eachConstant(x.Kid, schema, f)
	case expr.Cmp:
		if x.Val.IsNull() {
			return
		}
		if ord := schema.Ordinal(x.Col); ord >= 0 {
			f(ord, x.Val)
		}
	case expr.In:
		if ord := schema.Ordinal(x.Col); ord >= 0 {
			for _, v := range x.Vals {
				if !v.IsNull() {
					f(ord, v)
				}
			}
		}
	}
}

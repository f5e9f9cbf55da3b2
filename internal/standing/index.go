package standing

// The (column, interval) subscription index. The distinct constants
// that the registered set's guards compare each data column against
// become interval.Cuts — the cuts that prune partitions and shards —
// and each subscription keeps, per column, the segments its guard can
// touch (opt.PruneSpec). Classifying a row is then one stab per indexed
// column plus a bitset intersection; the surviving candidates are the
// only subscriptions whose predicate is evaluated.
//
// Soundness is inherited from the pruning walk: a guard is a sound
// weakening of its subscription's predicate, PruneSpec keeps every
// segment the guard could hold on (conservative on everything it cannot
// reason about, including NULL routing to segment 0), so a subscription
// is skipped for a row only when its predicate provably fails on it.

import (
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/opt"
	"minequery/internal/value"
)

// intervalIndex maps a row to its candidate-subscription bitset.
type intervalIndex struct {
	nsubs int
	words int
	// full is the all-candidates bitset (trailing bits masked off).
	full []uint64
	cols []indexedCol
}

// indexedCol is one column's segment index: the cuts and, per segment,
// the bitset of subscriptions that may match within it.
type indexedCol struct {
	ord  int
	cuts interval.Cuts
	segs [][]uint64
}

// buildIndex constructs the interval index over the builder's compiled
// subscriptions. Columns whose guards use more than maxSegments
// distinct constants stay unindexed (sound — just less pruning).
func (b *tableBuilder) buildIndex() {
	n := len(b.subs)
	ix := &intervalIndex{nsubs: n, words: (n + 63) / 64}
	ix.full = make([]uint64, ix.words)
	for i := 0; i < n; i++ {
		ix.full[i/64] |= 1 << (i % 64)
	}
	// Collect the distinct constants each guard compares each schema
	// column against.
	consts := map[int][]value.Value{}
	for _, cs := range b.subs {
		collectConstants(cs.guard, b.schema, consts)
	}
	for ord, vals := range consts {
		cuts := interval.NewCuts(vals)
		if len(cuts) == 0 || len(cuts) > maxSegments {
			continue
		}
		segs := make([][]uint64, cuts.Segments())
		for s := range segs {
			segs[s] = make([]uint64, ix.words)
		}
		discriminates := false
		for i, cs := range b.subs {
			keep := opt.PruneSpec(b.schema.Col(ord).Name, cuts, cs.guard)
			for s, ok := range keep {
				if ok {
					segs[s][i/64] |= 1 << (i % 64)
				} else {
					discriminates = true
				}
			}
		}
		// A column every subscription keeps everywhere prunes nothing;
		// skip the per-row stab.
		if !discriminates {
			continue
		}
		ix.cols = append(ix.cols, indexedCol{ord: ord, cuts: cuts, segs: segs})
	}
	b.index = ix
}

// candidates fills out (len == words) with the bitset of subscriptions
// that may match row.
func (ix *intervalIndex) candidates(row value.Tuple, out []uint64) {
	copy(out, ix.full)
	for _, c := range ix.cols {
		seg := c.segs[c.cuts.Stab(row[c.ord])]
		for w := range out {
			out[w] &= seg[w]
		}
	}
}

// collectConstants gathers, per schema ordinal, the constants that
// pure-data comparison atoms in e test against. NULL literals never
// match any row and contribute nothing.
func collectConstants(e expr.Expr, schema *value.Schema, out map[int][]value.Value) {
	switch x := e.(type) {
	case expr.And:
		for _, k := range x.Kids {
			collectConstants(k, schema, out)
		}
	case expr.Or:
		for _, k := range x.Kids {
			collectConstants(k, schema, out)
		}
	case expr.Not:
		collectConstants(x.Kid, schema, out)
	case expr.Cmp:
		if x.Val.IsNull() {
			return
		}
		if ord := schema.Ordinal(x.Col); ord >= 0 {
			out[ord] = append(out[ord], x.Val)
		}
	case expr.In:
		if ord := schema.Ordinal(x.Col); ord >= 0 {
			for _, v := range x.Vals {
				if !v.IsNull() {
					out[ord] = append(out[ord], v)
				}
			}
		}
	}
}

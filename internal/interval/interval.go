// Package interval is the one place a bound is compared. An upper
// envelope is a formula of `col op const` atoms on data columns, so per
// column it is an interval; every layer that exploits one — conjunct
// simplification, range selectivity, index-seek bounds, partition, shard
// and standing-index pruning — asks the two types here instead of
// spelling out inclusive/exclusive tests of its own.
package interval

import (
	"slices"

	"minequery/internal/value"
)

// Interval is a range of one column's values under value.Compare's
// order: each side is unbounded, inclusive or exclusive. The zero value
// is unbounded on both sides, and building or tightening one allocates
// nothing.
//
// Domain: non-NULL values, with cross-kind numerics ordered as
// value.Compare orders them (Int(5) and Float(5) are the same point, NaN
// is below every number). A NULL satisfies no comparison, so it is no
// bound — Above and Below given one leave that side unbounded — and
// asking Contains about one means nothing.
//
// Tie rule: when Intersect meets two bounds of equal value on one side,
// the exclusive one wins — `x >= 5 AND x > 5` is `x > 5`.
type Interval struct {
	// A NULL lo or hi is that side unbounded.
	lo, hi       value.Value
	loInc, hiInc bool
}

// Above returns the interval of values greater than v, or equal to it
// when inc.
func Above(v value.Value, inc bool) Interval { return Interval{lo: v, loInc: inc} }

// Below returns the interval of values less than v, or equal to it when
// inc.
func Below(v value.Value, inc bool) Interval { return Interval{hi: v, hiInc: inc} }

// Point returns the interval holding exactly v.
func Point(v value.Value) Interval { return Interval{lo: v, hi: v, loInc: true, hiInc: true} }

// Lo returns the lower bound and whether it is inclusive; ok is false
// when the interval is unbounded below.
func (a Interval) Lo() (v value.Value, inc, ok bool) { return a.lo, a.loInc, !a.lo.IsNull() }

// Hi returns the upper bound and whether it is inclusive; ok is false
// when the interval is unbounded above.
func (a Interval) Hi() (v value.Value, inc, ok bool) { return a.hi, a.hiInc, !a.hi.IsNull() }

// outside is the one inclusive/exclusive bound test. c is how a value
// compares with a bound, signed so that negative is the side the bound
// cuts off (Compare(v, lo) for a lower bound, Compare(hi, v) for an
// upper); the value is outside when it is past the bound, or on it and
// the bound is exclusive.
func outside(c int, inc bool) bool { return c < 0 || (c == 0 && !inc) }

// Intersect returns the values in both a and b: per side, the tighter
// bound. On an equal-valued tie the exclusive bound wins (b's, when both
// are exclusive).
func (a Interval) Intersect(b Interval) Interval {
	if !b.lo.IsNull() && (a.lo.IsNull() || outside(value.Compare(a.lo, b.lo), b.loInc)) {
		a.lo, a.loInc = b.lo, b.loInc
	}
	if !b.hi.IsNull() && (a.hi.IsNull() || outside(value.Compare(b.hi, a.hi), b.hiInc)) {
		a.hi, a.hiInc = b.hi, b.hiInc
	}
	return a
}

// Empty reports whether no value lies in the interval: the bounds cross,
// or meet at a value one of them excludes.
func (a Interval) Empty() bool {
	return !a.lo.IsNull() && !a.hi.IsNull() && outside(value.Compare(a.hi, a.lo), a.loInc && a.hiInc)
}

// IsPoint reports whether the interval holds exactly one value: both
// bounds inclusive and equal.
func (a Interval) IsPoint() bool {
	return !a.lo.IsNull() && !a.hi.IsNull() && a.loInc && a.hiInc && value.Compare(a.lo, a.hi) == 0
}

// Contains reports whether v lies in the interval.
func (a Interval) Contains(v value.Value) bool {
	if !a.lo.IsNull() && outside(value.Compare(v, a.lo), a.loInc) {
		return false
	}
	return a.hi.IsNull() || !outside(value.Compare(a.hi, v), a.hiInc)
}

// Cuts is a strictly increasing list of split points. n cuts divide a
// column's domain into n+1 segments: segment i holds the values v with
// cuts[i-1] <= v < cuts[i], the first and last being unbounded below and
// above. Range partitions, range shards and the standing index's
// per-column constants are all Cuts.
type Cuts []value.Value

// NewCuts sorts vals by value.Compare and drops ties, in place, keeping
// the first of each tie in sorted order. It allocates nothing.
func NewCuts(vals []value.Value) Cuts {
	slices.SortFunc(vals, value.Compare)
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || value.Compare(out[len(out)-1], v) != 0 {
			out = append(out, v)
		}
	}
	return Cuts(out)
}

// Segments returns the number of segments the cuts define.
func (c Cuts) Segments() int { return len(c) + 1 }

// Stab returns the segment holding v. NULL satisfies no comparison, so
// where it is filed is a placement decision: value.Compare orders it
// below every cut, which files it in segment 0.
func (c Cuts) Stab(v value.Value) int { return c.rank(v, true) }

// Span returns the contiguous run first..last of segments that can hold
// a value of iv; first > last when none can. It is two stabs: segments
// below the one holding iv's lower bound end at or before it, and
// segments past the one its upper bound reaches start after it. A
// segment is kept whenever the bounds leave room for a value in a dense
// order, so a caller that skips the others skips work, never rows.
func (c Cuts) Span(iv Interval) (first, last int) {
	last = len(c)
	if !iv.lo.IsNull() {
		first = c.rank(iv.lo, true)
	}
	if !iv.hi.IsNull() {
		// Segment p starts at cuts[p-1], inclusive: an exclusive upper
		// bound equal to that cut leaves segment p nothing.
		last = c.rank(iv.hi, iv.hiInc)
	}
	return first, last
}

// rank counts the cuts below v, and those equal to it when inc.
func (c Cuts) rank(v value.Value, inc bool) int {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if outside(value.Compare(v, c[mid]), inc) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

package core

import (
	"math"
	"sort"
)

// mergeRegions repeatedly coalesces regions that are identical in all
// dimensions but one, where the differing dimension's member sets can
// union into a valid selection (any union for unordered dims; a
// contiguous run for ordered dims). This is the paper's bottom-up merge
// of contiguous leaves plus the iterative non-sibling merge, implemented
// by hashing regions on their selection excluding one dimension at a
// time, so each pass is near-linear instead of quadratic.
func mergeRegions(g *Grid, regions []*region) []*region {
	out := regions
	for changed := true; changed; {
		changed = false
		for d := range g.Dims {
			var didMerge bool
			out, didMerge = mergeAlongDim(g, out, d)
			changed = changed || didMerge
		}
	}
	return out
}

// mergeAlongDim merges regions equal in every dimension except d.
func mergeAlongDim(g *Grid, regions []*region, d int) ([]*region, bool) {
	if len(regions) < 2 {
		return regions, false
	}
	// Buckets are visited in first-seen order: a derivation must not
	// hang on map order, or two trainings of one model render apart.
	buckets := make(map[string][]*region, len(regions))
	var keys []string
	var keyBuf []byte
	for _, r := range regions {
		keyBuf = keyBuf[:0]
		for e, sel := range r.sel {
			if e == d {
				continue
			}
			for _, l := range sel {
				keyBuf = appendInt(keyBuf, l)
				keyBuf = append(keyBuf, ',')
			}
			keyBuf = append(keyBuf, '|')
		}
		k := string(keyBuf)
		if _, ok := buckets[k]; !ok {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], r)
	}
	if len(buckets) == len(regions) {
		return regions, false
	}
	var out []*region
	merged := false
	for _, k := range keys {
		group := buckets[k]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		if !g.Dims[d].Ordered {
			// All members can union freely.
			u := group[0].sel[d]
			for _, r := range group[1:] {
				u = unionInts(u, r.sel[d])
			}
			m := group[0].clone()
			m.sel[d] = u
			out = append(out, m)
			merged = true
			continue
		}
		// Ordered: merge overlapping/adjacent contiguous runs.
		sortRegionsByStart(group, d)
		cur := group[0].clone()
		for _, r := range group[1:] {
			cs := cur.sel[d]
			rs := r.sel[d]
			if rs[0] <= cs[len(cs)-1]+1 {
				cur.sel[d] = unionRun(cs, rs)
				merged = true
				continue
			}
			out = append(out, cur)
			cur = r.clone()
		}
		out = append(out, cur)
	}
	return out, merged
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [12]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

func sortRegionsByStart(group []*region, d int) {
	for i := 1; i < len(group); i++ {
		for j := i; j > 0 && group[j].sel[d][0] < group[j-1].sel[d][0]; j-- {
			group[j], group[j-1] = group[j-1], group[j]
		}
	}
}

// unionRun merges two contiguous runs that overlap or touch into one
// contiguous run.
func unionRun(a, b []int) []int {
	lo, hi := a[0], a[len(a)-1]
	if b[0] < lo {
		lo = b[0]
	}
	if b[len(b)-1] > hi {
		hi = b[len(b)-1]
	}
	out := make([]int, 0, hi-lo+1)
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	return out
}

// coalesce reduces the region count to at most max, accepting looser
// (but still sound) envelopes — the Section 4.2 complexity/tightness
// trade-off. Regions are sorted spatially (lexicographically by their
// per-dimension member ranges) and the cheapest adjacent pairs — those
// whose bounding box adds the fewest cells — are merged, repeating until
// the budget is met. Spatial adjacency keeps merges local so folded
// boxes do not balloon to the whole grid.
func coalesce(g *Grid, regions []*region, max int) []*region {
	out := mergeRegions(g, append([]*region(nil), regions...))
	for len(out) > max {
		sortSpatial(out)
		type pairCost struct {
			i      int
			growth float64
		}
		costs := make([]pairCost, 0, len(out)-1)
		for i := 0; i+1 < len(out); i++ {
			bb := boundingBox(g, out[i], out[i+1])
			costs = append(costs, pairCost{
				i:      i,
				growth: regionMass(g, bb) - regionMass(g, out[i]) - regionMass(g, out[i+1]),
			})
		}
		sort.Slice(costs, func(a, b int) bool { return costs[a].growth < costs[b].growth })
		need := len(out) - max
		used := make([]bool, len(out))
		merged := 0
		for _, pc := range costs {
			if merged >= need {
				break
			}
			if used[pc.i] || used[pc.i+1] || out[pc.i] == nil || out[pc.i+1] == nil {
				continue
			}
			out[pc.i] = boundingBox(g, out[pc.i], out[pc.i+1])
			used[pc.i] = true
			used[pc.i+1] = true
			out[pc.i+1] = nil
			merged++
		}
		if merged == 0 && len(out) > 1 {
			out[0] = boundingBox(g, out[0], out[1])
			out[1] = nil
		}
		kept := out[:0]
		for _, r := range out {
			if r != nil {
				kept = append(kept, r)
			}
		}
		out = mergeRegions(g, kept)
	}
	return out
}

// regionMass estimates the probability mass the region covers under the
// grid's own generative model: Σ_c exp(Base_c) · Π_d Σ_{l∈sel_d}
// exp(score_d(l | c)). For naive Bayes grids this is exactly the model's
// probability of a tuple falling in the region, which makes it the right
// merge cost: coalescing should sacrifice empty space, not swallow the
// populated center of the data. Interval (clustering) grids use the
// upper score bound, a consistent over-estimate.
func regionMass(g *Grid, r *region) float64 {
	var total float64
	for c := range g.Classes {
		m := math.Exp(g.Base[c])
		for d := range g.Dims {
			var s float64
			for _, l := range r.sel[d] {
				s += math.Exp(g.Dims[d].ScoreHi[l][c])
			}
			m *= s
		}
		total += m
	}
	return total
}

// sortSpatial orders regions lexicographically by their per-dimension
// member ranges.
func sortSpatial(out []*region) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for d := range a.sel {
			if as, bs := a.sel[d][0], b.sel[d][0]; as != bs {
				return as < bs
			}
			ae := a.sel[d][len(a.sel[d])-1]
			be := b.sel[d][len(b.sel[d])-1]
			if ae != be {
				return ae < be
			}
		}
		return false
	})
}

// boundingBox returns the smallest valid region containing a and b: the
// per-dimension union, extended to a contiguous run for ordered dims.
func boundingBox(g *Grid, a, b *region) *region {
	m := a.clone()
	for d := range m.sel {
		u := unionInts(a.sel[d], b.sel[d])
		if g.Dims[d].Ordered && !contiguous(u) {
			lo, hi := u[0], u[len(u)-1]
			filled := make([]int, 0, hi-lo+1)
			for x := lo; x <= hi; x++ {
				filled = append(filled, x)
			}
			u = filled
		}
		m.sel[d] = u
	}
	return m
}

// unionInts merges two sorted int slices, deduplicating.
func unionInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var x int
		switch {
		case i >= len(a):
			x = b[j]
			j++
		case j >= len(b):
			x = a[i]
			i++
		case a[i] < b[j]:
			x = a[i]
			i++
		case a[i] > b[j]:
			x = b[j]
			j++
		default:
			x = a[i]
			i++
			j++
		}
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func contiguous(s []int) bool {
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1]+1 {
			return false
		}
	}
	return true
}

// Package core implements the paper's primary contribution: deriving
// upper-envelope predicates from the internal structure of mining
// models. Decision trees and rule sets yield envelopes directly from
// their test conditions (Section 3.1); naive Bayes and partitional
// clustering are mapped onto a common "score grid" — per-class,
// per-dimension additive scores with lower/upper bounds per member — and
// processed by the top-down bound-and-split algorithm of Section 3.2.2,
// which Section 3.3 shows also covers centroid-based and model-based
// clustering. Section 4's query rewrites live in rewrite.go.
package core

import (
	"fmt"
	"math"

	"minequery/internal/mining/cluster"
	"minequery/internal/mining/nbayes"
	"minequery/internal/value"
)

// Member is one cell of a grid dimension: either an exact attribute
// value (discrete member) or a half-open numeric interval [Lo, Hi).
type Member struct {
	// Value is the discrete member value (when Interval is false).
	Value value.Value
	// Interval marks a numeric interval member.
	Interval bool
	// Lo and Hi bound the interval; ±Inf allowed.
	Lo, Hi float64
}

// Dim is one grid dimension.
type Dim struct {
	// Col is the data column the dimension maps to.
	Col string
	// Ordered dims keep member order meaningful: shrinking only trims
	// the ends and regions stay contiguous (the paper's rule for
	// ordered dimensions). Interval dims are always ordered.
	Ordered bool
	// Members lists the dimension's cells in domain order.
	Members []Member
	// ScoreLo[l][k] and ScoreHi[l][k] bound class k's additive score
	// contribution within member l. For point scores (naive Bayes),
	// ScoreLo == ScoreHi.
	ScoreLo [][]float64
	ScoreHi [][]float64
	// DiffLo and DiffHi, when non-nil, bound the pairwise score
	// difference s_k − s_j within member l, indexed [l][k*K+j]. For
	// interval members with quadratic scores (clustering), these are
	// computed analytically and are much tighter than
	// ScoreHi[k]−ScoreLo[j]; the ratio-bound classifier prefers them.
	DiffLo [][]float64
	DiffHi [][]float64
}

// diffBounds returns the (min, max) of s_k − s_j within member l.
func (dim *Dim) diffBounds(l, k, j, nClasses int) (float64, float64) {
	if dim.DiffLo != nil {
		idx := k*nClasses + j
		return dim.DiffLo[l][idx], dim.DiffHi[l][idx]
	}
	return dim.ScoreLo[l][k] - dim.ScoreHi[l][j], dim.ScoreHi[l][k] - dim.ScoreLo[l][j]
}

// Grid is the additive-score model the top-down algorithm operates on:
// class k's total score at cell v is Base[k] + Σ_d score_d(v_d), and the
// predicted class is the argmax (ties resolved toward larger TiePrior).
type Grid struct {
	// Classes are the class labels in score order.
	Classes []value.Value
	// Base[k] is the per-class additive constant (log prior for naive
	// Bayes and mixture models; 0 for k-means).
	Base []float64
	// TiePrior[k] breaks score ties (raw priors for naive Bayes; nil
	// disables tie-breaking).
	TiePrior []float64
	// Dims are the grid dimensions.
	Dims []Dim
}

// Validate checks structural consistency.
func (g *Grid) Validate() error {
	k := len(g.Classes)
	if k == 0 {
		return fmt.Errorf("core: grid has no classes")
	}
	if len(g.Base) != k {
		return fmt.Errorf("core: grid has %d base scores for %d classes", len(g.Base), k)
	}
	if g.TiePrior != nil && len(g.TiePrior) != k {
		return fmt.Errorf("core: grid has %d tie priors for %d classes", len(g.TiePrior), k)
	}
	if len(g.Dims) == 0 {
		return fmt.Errorf("core: grid has no dimensions")
	}
	for d := range g.Dims {
		dim := &g.Dims[d]
		if len(dim.Members) == 0 {
			return fmt.Errorf("core: dimension %s has no members", dim.Col)
		}
		if len(dim.ScoreLo) != len(dim.Members) || len(dim.ScoreHi) != len(dim.Members) {
			return fmt.Errorf("core: dimension %s score tables misshapen", dim.Col)
		}
		for l := range dim.Members {
			if len(dim.ScoreLo[l]) != k || len(dim.ScoreHi[l]) != k {
				return fmt.Errorf("core: dimension %s member %d score rows misshapen", dim.Col, l)
			}
			for c := 0; c < k; c++ {
				if dim.ScoreLo[l][c] > dim.ScoreHi[l][c] {
					return fmt.Errorf("core: dimension %s member %d class %d: lo > hi", dim.Col, l, c)
				}
			}
		}
	}
	return nil
}

// GridFromNaiveBayes maps a trained naive Bayes model onto a grid:
// member scores are the log conditional probabilities (point scores),
// base scores the log priors. Numeric domains become ordered dimensions.
func GridFromNaiveBayes(m *nbayes.Model) *Grid {
	classes := m.Classes()
	g := &Grid{
		Classes:  classes,
		Base:     make([]float64, len(classes)),
		TiePrior: append([]float64(nil), m.Priors...),
		Dims:     make([]Dim, len(m.Domains)),
	}
	for k := range classes {
		g.Base[k] = math.Log(m.Priors[k])
	}
	cols := m.InputColumns()
	for d, dom := range m.Domains {
		ordered := true
		for _, v := range dom {
			if kd := v.Kind(); kd != value.KindInt && kd != value.KindFloat {
				ordered = false
				break
			}
		}
		dim := Dim{Col: cols[d], Ordered: ordered, Members: make([]Member, len(dom))}
		dim.ScoreLo = make([][]float64, len(dom))
		dim.ScoreHi = make([][]float64, len(dom))
		for l, v := range dom {
			dim.Members[l] = Member{Value: v}
			row := make([]float64, len(classes))
			for k := range classes {
				row[k] = math.Log(m.Cond[d][l][k])
			}
			dim.ScoreLo[l] = row
			dim.ScoreHi[l] = row
		}
		g.Dims[d] = dim
	}
	return g
}

// quadRangeBounds bounds q(x) = a·x² + b·x + c over [lo, hi], where the
// endpoints may be ±Inf (limits are taken).
func quadRangeBounds(a, b, c, lo, hi float64) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	consider := func(v float64) {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	limit := func(sign float64) float64 { // value as x -> sign*inf
		switch {
		case a != 0:
			return math.Inf(1) * sign * sign * signOf(a) // a·x² dominates
		case b != 0:
			return math.Inf(1) * sign * signOf(b)
		default:
			return c
		}
	}
	if math.IsInf(lo, -1) {
		consider(limit(-1))
	} else {
		consider(a*lo*lo + b*lo + c)
	}
	if math.IsInf(hi, 1) {
		consider(limit(1))
	} else {
		consider(a*hi*hi + b*hi + c)
	}
	if a != 0 {
		v := -b / (2 * a)
		if v > lo && v < hi {
			consider(a*v*v + b*v + c)
		}
	}
	return mn, mx
}

func signOf(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// quadScoreBounds bounds -w·(x−c)² over the interval [lo, hi).
func quadScoreBounds(c, w, lo, hi float64) (sLo, sHi float64) {
	// Maximum of the (negated) quadratic: at the point of [lo,hi]
	// closest to c.
	closest := c
	if c < lo {
		closest = lo
	} else if c > hi {
		closest = hi
	}
	d := closest - c
	sHi = -w * d * d
	// Minimum: at the farthest endpoint.
	farLo, farHi := math.Abs(lo-c), math.Abs(hi-c)
	far := math.Max(farLo, farHi)
	if math.IsInf(far, 1) {
		sLo = math.Inf(-1)
	} else {
		sLo = -w * far * far
	}
	if w == 0 {
		sLo, sHi = 0, 0
	}
	return sLo, sHi
}

// intervalMembers builds the interval member list for cut points.
func intervalMembers(cuts []float64) []Member {
	members := make([]Member, 0, len(cuts)+1)
	prev := math.Inf(-1)
	for _, c := range cuts {
		members = append(members, Member{Interval: true, Lo: prev, Hi: c})
		prev = c
	}
	return append(members, Member{Interval: true, Lo: prev, Hi: math.Inf(1)})
}

// refineCuts merges base cut points with explicit edge cuts at lo and hi
// and an equal-width refinement of [lo, hi], so each dimension has
// around bins members and — critically — the outermost (unbounded)
// intervals begin where the data ends: cells beyond every finite cut
// have unbounded score differences and can never resolve, so they must
// not contain data.
func refineCuts(base []float64, lo, hi float64, bins int) []float64 {
	cuts := append([]float64(nil), base...)
	if hi > lo {
		cuts = append(cuts, lo, hi)
		if extra := bins - len(cuts) - 1; extra > 0 {
			step := (hi - lo) / float64(extra+1)
			for i := 1; i <= extra; i++ {
				cuts = append(cuts, lo+step*float64(i))
			}
		}
	}
	// Sort + dedupe.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := cuts[:0]
	for i, c := range cuts {
		if i == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	// Cap the member count: many classes generate quadratically many
	// pairwise midpoints, and past ~2×bins the extra resolution only
	// slows the search down.
	if cap := 2 * bins; len(out) > cap && cap > 1 {
		sampled := make([]float64, 0, cap)
		for i := 0; i < cap; i++ {
			sampled = append(sampled, out[i*len(out)/cap])
		}
		out = sampled
	}
	return out
}

// GridFromKMeans maps a centroid-based clustering model onto a grid:
// each dimension is cut at centroid midpoints (refined to ~bins
// intervals) and cluster k's score within an interval is bounded by the
// weighted negated squared distance evaluated at the nearest/farthest
// points of the interval. The argmax of the summed scores is exactly the
// model's cluster assignment, per Section 3.3.
func GridFromKMeans(m *cluster.KMeans, bins int) *Grid {
	if bins < 2 {
		bins = 8
	}
	classes := m.Classes()
	g := &Grid{
		Classes: classes,
		Base:    make([]float64, len(classes)),
		Dims:    make([]Dim, len(m.InputColumns())),
	}
	cols := m.InputColumns()
	for d := range cols {
		lo, hi := m.DimRange(d)
		// Pad by the centroid span so the bounded grid covers the data
		// around the outermost centroids (see refineCuts).
		span := hi - lo
		if span <= 0 {
			span = 1
		}
		lo -= span
		hi += span
		cuts := refineCuts(m.CentroidCuts(d), lo, hi, bins)
		members := intervalMembers(cuts)
		dim := Dim{Col: cols[d], Ordered: true, Members: members}
		dim.ScoreLo = make([][]float64, len(members))
		dim.ScoreHi = make([][]float64, len(members))
		K := len(classes)
		dim.DiffLo = make([][]float64, len(members))
		dim.DiffHi = make([][]float64, len(members))
		for l, mem := range members {
			dim.ScoreLo[l] = make([]float64, K)
			dim.ScoreHi[l] = make([]float64, K)
			for k := range classes {
				sLo, sHi := quadScoreBounds(m.Centroids[k][d], m.Weights[k][d], mem.Lo, mem.Hi)
				dim.ScoreLo[l][k] = sLo
				dim.ScoreHi[l][k] = sHi
			}
			// Pairwise score differences are quadratics bounded
			// analytically over the interval — tight even on the
			// unbounded outer intervals where per-class scores diverge.
			dim.DiffLo[l] = make([]float64, K*K)
			dim.DiffHi[l] = make([]float64, K*K)
			for k := 0; k < K; k++ {
				wk, ck := m.Weights[k][d], m.Centroids[k][d]
				for j := 0; j < K; j++ {
					wj, cj := m.Weights[j][d], m.Centroids[j][d]
					a := wj - wk
					b := 2 * (wk*ck - wj*cj)
					c := wj*cj*cj - wk*ck*ck
					mn, mx := quadRangeBounds(a, b, c, mem.Lo, mem.Hi)
					dim.DiffLo[l][k*K+j] = mn
					dim.DiffHi[l][k*K+j] = mx
				}
			}
		}
		g.Dims[d] = dim
	}
	return g
}

// GridFromGMM maps a diagonal-Gaussian mixture onto a grid: per-dimension
// scores are the log component densities (quadratic in x, so the same
// interval bounding applies) and base scores are the log mixing weights.
func GridFromGMM(m *cluster.GMM, bins int) *Grid {
	if bins < 2 {
		bins = 8
	}
	classes := m.Classes()
	g := &Grid{
		Classes: classes,
		Base:    make([]float64, len(classes)),
		Dims:    make([]Dim, len(m.InputColumns())),
	}
	for k := range classes {
		g.Base[k] = math.Log(m.Mix[k])
	}
	cols := m.InputColumns()
	for d := range cols {
		// The grid must cover where the data lives, not just the span of
		// the component means: cells outside every finite cut have
		// unbounded score differences and can never resolve, so extend
		// the cut range to means ± 3σ.
		lo, hi := math.Inf(1), math.Inf(-1)
		var cuts []float64
		means := make([]float64, len(classes))
		for k := range classes {
			mu := m.Means[k][d]
			sd := 3 * math.Sqrt(m.Vars[k][d])
			means[k] = mu
			if mu-sd < lo {
				lo = mu - sd
			}
			if mu+sd > hi {
				hi = mu + sd
			}
		}
		for i := range means {
			for j := i + 1; j < len(means); j++ {
				if means[i] != means[j] {
					cuts = append(cuts, (means[i]+means[j])/2)
				}
			}
		}
		cuts = refineCuts(cuts, lo, hi, bins)
		members := intervalMembers(cuts)
		dim := Dim{Col: cols[d], Ordered: true, Members: members}
		K := len(classes)
		dim.ScoreLo = make([][]float64, len(members))
		dim.ScoreHi = make([][]float64, len(members))
		dim.DiffLo = make([][]float64, len(members))
		dim.DiffHi = make([][]float64, len(members))
		weight := func(k int) float64 { return 0.5 / m.Vars[k][d] }
		normTerm := func(k int) float64 { return -0.5 * math.Log(2*math.Pi*m.Vars[k][d]) }
		for l, mem := range members {
			dim.ScoreLo[l] = make([]float64, K)
			dim.ScoreHi[l] = make([]float64, K)
			for k := range classes {
				sLo, sHi := quadScoreBounds(m.Means[k][d], weight(k), mem.Lo, mem.Hi)
				dim.ScoreLo[l][k] = sLo + normTerm(k)
				dim.ScoreHi[l][k] = sHi + normTerm(k)
			}
			dim.DiffLo[l] = make([]float64, K*K)
			dim.DiffHi[l] = make([]float64, K*K)
			for k := 0; k < K; k++ {
				wk, mk := weight(k), m.Means[k][d]
				for j := 0; j < K; j++ {
					wj, mj := weight(j), m.Means[j][d]
					a := wj - wk
					b := 2 * (wk*mk - wj*mj)
					c := wj*mj*mj - wk*mk*mk + normTerm(k) - normTerm(j)
					mn, mx := quadRangeBounds(a, b, c, mem.Lo, mem.Hi)
					dim.DiffLo[l][k*K+j] = mn
					dim.DiffHi[l][k*K+j] = mx
				}
			}
		}
		g.Dims[d] = dim
	}
	return g
}

package core

import (
	"fmt"
	"math"
	"testing"

	"minequery/internal/dataset"
	"minequery/internal/mining/nbayes"
)

// EnumerationEnvelope is the first-cut algorithm of Section 3.2.2: it
// enumerates every member combination of a point-score grid, predicts
// the class of each cell, collects the cells belonging to class k, and
// merges them into regions. Its cost is K·Π n_d — the exponential
// blow-up the top-down algorithm exists to avoid — so it refuses grids
// with more than maxCells cells. It is the ground-truth oracle of the
// envelope tests and the baseline of BenchmarkTopDownVsEnumeration.
func EnumerationEnvelope(g *Grid, k int, maxCells int) ([]*region, error) {
	for d := range g.Dims {
		for l := range g.Dims[d].Members {
			for c := range g.Classes {
				if g.Dims[d].ScoreLo[l][c] != g.Dims[d].ScoreHi[l][c] {
					return nil, fmt.Errorf("core: enumeration needs point scores (dim %s member %d has an interval score)", g.Dims[d].Col, l)
				}
			}
		}
	}
	cells := 1
	for d := range g.Dims {
		cells *= len(g.Dims[d].Members)
		if maxCells > 0 && cells > maxCells {
			return nil, fmt.Errorf("core: enumeration over %d+ cells exceeds budget %d", cells, maxCells)
		}
	}
	ls := make([]int, len(g.Dims))
	var winners []*region
	for {
		if g.CellWinner(ls) == k {
			r := &region{sel: make([][]int, len(ls))}
			for d, l := range ls {
				r.sel[d] = []int{l}
			}
			winners = append(winners, r)
		}
		// Advance the odometer.
		d := 0
		for d < len(ls) {
			ls[d]++
			if ls[d] < len(g.Dims[d].Members) {
				break
			}
			ls[d] = 0
			d++
		}
		if d == len(ls) {
			break
		}
	}
	return mergeRegions(g, winners), nil
}

// CoverageCheck verifies that regions cover every cell of a point-score
// grid predicted as class k (the envelope soundness invariant). It
// returns the first uncovered cell, or nil if the cover is complete.
func CoverageCheck(g *Grid, k int, regions []*region) []int {
	ls := make([]int, len(g.Dims))
	for {
		if g.CellWinner(ls) == k && !covered(regions, ls) {
			return append([]int(nil), ls...)
		}
		d := 0
		for d < len(ls) {
			ls[d]++
			if ls[d] < len(g.Dims[d].Members) {
				break
			}
			ls[d] = 0
			d++
		}
		if d == len(ls) {
			return nil
		}
	}
}

func covered(regions []*region, ls []int) bool {
	for _, r := range regions {
		all := true
		for d, l := range ls {
			if !containsInt(r.sel[d], l) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func containsInt(s []int, x int) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s[mid] < x:
			lo = mid + 1
		case s[mid] > x:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// CellScore returns class k's exact score at a discrete cell given by
// member indices (valid when all dims have point scores, i.e. naive
// Bayes grids).
func (g *Grid) CellScore(ls []int, k int) float64 {
	s := g.Base[k]
	for d, l := range ls {
		s += g.Dims[d].ScoreHi[l][k]
	}
	return s
}

// CellWinner returns the predicted class index at a discrete cell,
// applying tie-breaking.
func (g *Grid) CellWinner(ls []int) int {
	best, bestS := -1, math.Inf(-1)
	for k := range g.Classes {
		s := g.CellScore(ls, k)
		switch {
		case best < 0 || s > bestS:
			best, bestS = k, s
		case s == bestS && g.TiePrior != nil && g.TiePrior[k] > g.TiePrior[best]:
			best = k
		}
	}
	return best
}

// BenchmarkTopDownVsEnumeration contrasts Algorithm 1 against the
// exponential enumeration baseline (§3.2.2's complexity claim), on the
// 8-attribute Diabetes grid (~5M cells — the regime where the paper's
// "naive algorithm took more than 24 hours" observation starts to bite;
// the top-down algorithm never visits individual cells).
func BenchmarkTopDownVsEnumeration(b *testing.B) {
	spec := dataset.ByName("Diabetes")
	m, err := nbayes.TrainColumns("m", "p", spec.TrainColumns(), nbayes.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := GridFromNaiveBayes(m)
	b.Run("topdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopDownEnvelope(g, 0, Options{MaxExpansions: 512}, nil)
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EnumerationEnvelope(g, 0, 10_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

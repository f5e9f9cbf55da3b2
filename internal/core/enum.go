package core

import (
	"fmt"
)

// EnumerationEnvelope is the first-cut algorithm of Section 3.2.2: it
// enumerates every member combination of a point-score grid, predicts
// the class of each cell, collects the cells belonging to class k, and
// merges them into regions. Its cost is K·Π n_d — the exponential
// blow-up the top-down algorithm exists to avoid — so it refuses grids
// with more than maxCells cells. It is used as a ground-truth oracle in
// tests and as the ablation baseline.
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

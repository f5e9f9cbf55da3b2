// Package tuner is the minequery analog of the Index Tuning Wizard the
// paper used to generate a physical design for each envelope-query
// workload (Section 5.1): given a table and the workload's predicates,
// it proposes a bounded set of (possibly composite) indexes by
// extracting sargable column prefixes from each predicate's disjuncts
// and greedily keeping the candidates with the largest estimated
// benefit.
package tuner

import (
	"sort"
	"strings"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/stats"
)

// Candidate is one proposed index.
type Candidate struct {
	// Columns is the proposed key, leading equality columns first.
	Columns []string
	// Benefit is the accumulated estimated benefit across the workload
	// (rows avoided versus a full scan).
	Benefit float64
	// Uses counts the disjuncts the candidate serves.
	Uses int
}

// Recommend proposes up to maxIndexes indexes for the workload. Each
// workload entry is one query's predicate. Existing indexes are not
// consulted; callers typically drop and recreate the physical design
// per workload as the paper's methodology does.
func Recommend(t *catalog.Table, workload []expr.Expr, maxIndexes int) []Candidate {
	if maxIndexes <= 0 {
		maxIndexes = 8
	}
	ts := t.Stats()
	rows := float64(t.Heap.Len())
	agg := map[string]*Candidate{}
	for _, pred := range workload {
		d, ok := expr.ToDNF(pred, 256)
		if !ok {
			continue
		}
		for _, c := range d.Disjuncts {
			cols, sel := sargableColumns(ts, c)
			if len(cols) == 0 {
				continue
			}
			key := strings.Join(cols, "\x00")
			cand := agg[key]
			if cand == nil {
				cand = &Candidate{Columns: cols}
				agg[key] = cand
			}
			cand.Uses++
			benefit := rows * (1 - sel)
			if benefit > 0 {
				cand.Benefit += benefit
			}
		}
	}
	out := make([]Candidate, 0, len(agg))
	for _, c := range agg {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benefit != out[j].Benefit {
			return out[i].Benefit > out[j].Benefit
		}
		return strings.Join(out[i].Columns, ",") < strings.Join(out[j].Columns, ",")
	})
	// Phase 1: keep the highest-benefit composite candidates, dropping
	// ones whose key is a prefix of an already kept key (the longer
	// index serves both).
	budget := maxIndexes / 2
	if budget < 1 {
		budget = 1
	}
	var kept []Candidate
	for _, c := range out {
		redundant := false
		for _, k := range kept {
			if isPrefix(c.Columns, k.Columns) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
		}
		if len(kept) >= budget {
			break
		}
	}
	// Phase 2: greedy set cover with single-column indexes so that every
	// disjunct of every workload predicate has at least one usable
	// leading column — an OR plan degrades to a scan if even one
	// disjunct is uncovered, so coverage matters more than depth here.
	kept = append(kept, coverSingles(ts, rows, workload, kept, maxIndexes)...)
	return kept
}

// coverSingles proposes single-column indexes until every disjunct in
// the workload has some kept index whose leading column it constrains.
func coverSingles(ts *stats.TableStats, rows float64, workload []expr.Expr, kept []Candidate, maxIndexes int) []Candidate {
	type disjunct struct {
		cols map[string]bool
		sel  float64
	}
	var open []disjunct
	for _, pred := range workload {
		d, ok := expr.ToDNF(pred, 256)
		if !ok {
			continue
		}
		for _, c := range d.Disjuncts {
			cols, sel := sargableColumns(ts, c)
			if len(cols) == 0 {
				continue
			}
			covered := false
			set := map[string]bool{}
			for _, col := range cols {
				set[strings.ToLower(col)] = true
			}
			for _, k := range kept {
				if set[strings.ToLower(k.Columns[0])] {
					covered = true
					break
				}
			}
			if !covered {
				open = append(open, disjunct{cols: set, sel: sel})
			}
		}
	}
	var extra []Candidate
	for len(open) > 0 && len(kept)+len(extra) < maxIndexes {
		// Pick the column covering the most open disjuncts.
		counts := map[string]int{}
		for _, d := range open {
			for col := range d.cols {
				counts[col]++
			}
		}
		best, bestN := "", 0
		for col, n := range counts {
			if n > bestN || (n == bestN && col < best) {
				best, bestN = col, n
			}
		}
		if best == "" {
			break
		}
		var benefit float64
		var remaining []disjunct
		for _, d := range open {
			if d.cols[best] {
				benefit += rows * (1 - d.sel)
				continue
			}
			remaining = append(remaining, d)
		}
		extra = append(extra, Candidate{Columns: []string{best}, Benefit: benefit, Uses: bestN})
		open = remaining
	}
	return extra
}

// maxKeyColumns caps proposed index width.
const maxKeyColumns = 6

// sargableColumns extracts one disjunct's index-key candidate: equality
// and IN columns first, then range columns, each group ordered most
// selective first (the optimizer enumerates narrow integer ranges into
// equality prefixes, so range columns are usable beyond the first index
// column). It returns the combined estimated selectivity of the
// extracted conditions.
func sargableColumns(ts *stats.TableStats, c expr.Conjunct) ([]string, float64) {
	type colSel struct {
		col string
		sel float64
	}
	var eqCols []colSel
	seenEq := map[string]bool{}
	type rangeInfo struct {
		col      string
		sel      float64
		iv       interval.Interval
		selKnown bool
	}
	ranges := map[string]*rangeInfo{}
	var rangeOrder []string
	for _, cond := range c.Conds {
		switch x := cond.(type) {
		case expr.Cmp:
			key := strings.ToLower(x.Col)
			switch x.Op {
			case expr.OpEq:
				if !seenEq[key] {
					seenEq[key] = true
					eqCols = append(eqCols, colSel{x.Col, ts.Selectivity(x)})
				}
			case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
				ri := ranges[key]
				if ri == nil {
					ri = &rangeInfo{col: x.Col, sel: 1}
					ranges[key] = ri
					rangeOrder = append(rangeOrder, key)
				}
				iv, _ := x.Interval()
				ri.iv = ri.iv.Intersect(iv)
				if s := ts.Selectivity(x); !ri.selKnown || s < ri.sel {
					ri.sel, ri.selKnown = s, true
				}
			}
		case expr.In:
			key := strings.ToLower(x.Col)
			if !seenEq[key] && len(x.Vals) <= 16 {
				seenEq[key] = true
				eqCols = append(eqCols, colSel{x.Col, ts.Selectivity(x)})
			}
		}
	}
	// Two-sided ranges become IN prefixes at plan time (integer
	// enumeration), so they join the equality group; a one-sided range
	// can only terminate the key, so the most selective one goes last.
	var open []colSel
	for _, key := range rangeOrder {
		ri := ranges[key]
		if seenEq[key] {
			continue
		}
		_, _, hasLo := ri.iv.Lo()
		_, _, hasHi := ri.iv.Hi()
		if hasLo && hasHi {
			eqCols = append(eqCols, colSel{ri.col, ri.sel})
		} else {
			open = append(open, colSel{ri.col, ri.sel})
		}
	}
	bySel := func(cs []colSel) {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].sel != cs[j].sel {
				return cs[i].sel < cs[j].sel
			}
			return cs[i].col < cs[j].col
		})
	}
	bySel(eqCols)
	bySel(open)
	var cols []string
	sel := 1.0
	for _, cs := range eqCols {
		cols = append(cols, cs.col)
		sel *= cs.sel
	}
	if len(open) > 0 {
		cols = append(cols, open[0].col)
		sel *= open[0].sel
	}
	if len(cols) > maxKeyColumns {
		cols = cols[:maxKeyColumns]
	}
	return cols, sel
}

func isPrefix(short, long []string) bool {
	if len(short) > len(long) {
		return false
	}
	for i := range short {
		if !strings.EqualFold(short[i], long[i]) {
			return false
		}
	}
	return true
}

// Apply creates the recommended indexes on the table, naming them
// ix_<table>_<n>. It returns the created index names.
func Apply(cat *catalog.Catalog, table string, cands []Candidate) ([]string, error) {
	var names []string
	for i, c := range cands {
		name := indexName(table, i)
		if _, err := cat.CreateIndex(name, table, c.Columns...); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}

func indexName(table string, i int) string {
	return "ix_" + strings.ToLower(table) + "_" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

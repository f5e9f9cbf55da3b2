// Package opt implements minequery's cost-based access-path selection:
// given a table and a (possibly envelope-augmented) predicate, it decides
// between a sequential scan, a single index seek, an index union over the
// predicate's disjuncts, or a constant scan when the predicate is
// unsatisfiable. This is the decision the paper's upper envelopes exist
// to influence, and its §4.2 caveats (disjunct thresholding, well-behaved
// handling of complex AND/OR filters) are reflected in Config.
package opt

import (
	"math"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/stats"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// Config tunes the cost model.
type Config struct {
	// SeqPageCost is the cost of reading one page sequentially.
	SeqPageCost float64
	// RandomPageCost is the cost of one random page fetch (index seek
	// row lookup). The classic 4x penalty by default.
	RandomPageCost float64
	// RowCPUCost is the per-row predicate-evaluation cost.
	RowCPUCost float64
	// MaxDisjuncts caps DNF expansion of the predicate; beyond it the
	// optimizer degrades to a sequential scan with a residual filter
	// (the paper's §4.2 thresholding of envelope complexity).
	MaxDisjuncts int
	// MaxInExpansion caps how many values of an IN condition may be
	// expanded into separate index seeks.
	MaxInExpansion int
	// DOP is the degree of parallelism the executor will use for
	// sequential scans. Scan cost is divided by DOP (morsels are spread
	// evenly across workers); index seeks stay serial, so a higher DOP
	// shifts the scan/index crossover toward scans. <=0 means 1.
	DOP int
}

// DefaultConfig returns the standard cost model. A sequential scan pays
// one unit per page plus a per-row decode-and-evaluate cost; an index
// fetch pays one random page unit plus the per-row cost per matching
// row. With these weights the scan/index crossover lands at roughly 10%
// selectivity, matching the paper's observation that "when a predicate's
// selectivity is high (e.g., above 10%) the optimizer rarely selects
// indexes".
func DefaultConfig() Config {
	return Config{
		SeqPageCost:    1.0,
		RandomPageCost: 1.0,
		RowCPUCost:     0.1,
		MaxDisjuncts:   256,
		MaxInExpansion: 128,
		DOP:            1,
	}
}

// Cost prices what an execution read with the model's weights: its
// sequential and random page reads and its tuple reads. It is the one
// place reads become cost units — the engine's ExecStats.CostUnits and
// the experiments' running-cost comparison both call it.
func (cfg Config) Cost(io storage.IOStats) float64 {
	return float64(io.SeqPageReads)*cfg.SeqPageCost +
		float64(io.RandPageReads)*cfg.RandomPageCost +
		float64(io.TupleReads)*cfg.RowCPUCost
}

// Result reports the chosen plan and the estimates behind the choice.
type Result struct {
	Plan plan.Node
	// Path classifies the chosen access path.
	Path plan.AccessPath
	// ScanPlan is the always-sound alternative: a sequential scan with
	// the full predicate as its filter. It returns exactly the rows Plan
	// returns (index paths only ever overscan and re-filter), so the
	// engine can re-run a query on ScanPlan when the optimized path
	// fails mid-flight without changing the answer.
	ScanPlan plan.Node
	// EstSelectivity is the estimated fraction of rows satisfying the
	// predicate.
	EstSelectivity float64
	// ScanCost and IndexCost are the estimated costs of the two
	// alternatives (IndexCost is +Inf when no index applies).
	ScanCost  float64
	IndexCost float64
	// PartsTotal and PartsPruned report partition pruning: of PartsTotal
	// partitions (0 for unpartitioned tables), PartsPruned were proven
	// disjoint from the predicate and will not be read by a scan plan.
	PartsTotal  int
	PartsPruned int
	// Partitions lists the surviving partitions (nil for unpartitioned
	// tables; empty when every partition was pruned).
	Partitions []int
}

// ChooseAccessPath plans a selection over one table.
func ChooseAccessPath(t *catalog.Table, pred expr.Expr, cfg Config) Result {
	ts := t.Stats()
	rowCount := float64(t.Heap.Len())
	dop := float64(cfg.DOP)
	if dop < 1 {
		dop = 1
	}

	simplified, simplifyOK := expr.Simplify(pred, cfg.MaxDisjuncts)
	if !simplifyOK {
		// Too complex to normalize within budget: the scan keeps the
		// original predicate as its filter.
		simplified = pred
	}
	// Partition pruning runs before costing: a scan plan only reads the
	// surviving partitions, so their sizes — not the whole table's —
	// are what a sequential scan pays for. The pruning walk is
	// conservative, so this never affects which rows are returned.
	parts, total := PrunePartitions(t, simplified)
	pruned := 0
	if total > 0 {
		pruned = total - len(parts)
	}
	scanPages, scanRows := t.PartitionSizes(parts)
	// Page reads and per-row evaluation of a scan parallelize across the
	// morsel workers; index seeks (below) remain serial. A fresh columnar
	// sidecar discounts the per-row CPU cost: vectorized selection skips
	// per-tuple decode and interface dispatch, shifting the scan/index
	// crossover toward scans.
	columnar := t.ColumnarReady()
	rowCPU := cfg.RowCPUCost
	if columnar {
		rowCPU *= columnarCPUFactor
	}
	scanCost := (float64(scanPages)*cfg.SeqPageCost + float64(scanRows)*rowCPU) / dop

	// seqScan is the (possibly pruned) scan leaf for the chosen plan;
	// fullScan is the always-sound unpruned fallback used for ScanPlan,
	// which deliberately ignores pruning AND the columnar sidecar so a
	// mid-flight failure never re-runs through any optimizer reasoning.
	seqScan := func() *plan.SeqScan {
		return &plan.SeqScan{Table: t.Name, Partitions: parts, PartsTotal: total, Columnar: columnar}
	}
	fullScan := func(filter expr.Expr) plan.Node {
		return withFilter(&plan.SeqScan{Table: t.Name}, filter)
	}
	res := func(r Result) Result {
		r.PartsTotal, r.PartsPruned, r.Partitions = total, pruned, parts
		return r
	}
	sel := ts.Selectivity(simplified)
	// seqRes is the filtered sequential scan, chosen whenever no index
	// path is sound or cheaper; indexCost is what the index path would
	// have cost.
	seqRes := func(indexCost float64) Result {
		return res(Result{
			Plan:           withFilter(seqScan(), simplified),
			Path:           plan.AccessSeqScan,
			ScanPlan:       fullScan(simplified),
			EstSelectivity: sel,
			ScanCost:       scanCost,
			IndexCost:      indexCost,
		})
	}

	if !simplifyOK {
		return seqRes(inf)
	}

	if _, isFalse := simplified.(expr.FalseExpr); isFalse {
		return res(Result{
			Plan:           &plan.ConstScan{Table: t.Name},
			Path:           plan.AccessConstant,
			ScanPlan:       fullScan(simplified),
			EstSelectivity: 0,
			ScanCost:       scanCost,
			IndexCost:      0,
		})
	}
	if total > 0 && len(parts) == 0 {
		// Every partition's boundary interval contradicts the predicate:
		// no partition can hold a qualifying row, so the data need not
		// be referenced at all, exactly as for a FALSE predicate.
		return res(Result{
			Plan:           &plan.ConstScan{Table: t.Name},
			Path:           plan.AccessConstant,
			ScanPlan:       fullScan(simplified),
			EstSelectivity: sel,
			ScanCost:       scanCost,
			IndexCost:      0,
		})
	}
	if _, isTrue := simplified.(expr.TrueExpr); isTrue {
		return res(Result{
			Plan:           seqScan(),
			Path:           plan.AccessSeqScan,
			ScanPlan:       &plan.SeqScan{Table: t.Name},
			EstSelectivity: 1,
			ScanCost:       scanCost,
			IndexCost:      inf,
		})
	}

	d, ok := expr.ToDNF(simplified, cfg.MaxDisjuncts)
	if !ok || len(d.Disjuncts) == 0 {
		return seqRes(inf)
	}

	// Find the best seek set per disjunct; all disjuncts must be
	// index-accessible for an index plan to be sound.
	var seeks []*plan.IndexSeek
	indexRows := 0.0
	covered := true
	for _, c := range d.Disjuncts {
		c = rangeToIn(ts, intBounds(t, c), cfg)
		cand := bestSeeks(t, ts, c, cfg)
		if cand == nil {
			covered = false
			break
		}
		seeks = append(seeks, cand.seeks...)
		indexRows += cand.estRows
	}
	if !covered || len(seeks) == 0 {
		return seqRes(inf)
	}
	if indexRows > rowCount {
		indexRows = rowCount
	}
	// Each fetched row is a potential random page read; seeks add a
	// small per-probe cost (tree descent). Indexes are global (RIDs
	// carry their partition), so pruning does not discount index cost —
	// it only makes the competing scan cheaper.
	indexCost := indexRows*cfg.RandomPageCost + float64(len(seeks))*seekProbeCost + indexRows*cfg.RowCPUCost

	if indexCost >= scanCost {
		return seqRes(indexCost)
	}
	var access plan.Node
	var path plan.AccessPath
	if len(seeks) == 1 {
		access, path = seeks[0], plan.AccessIndex
	} else {
		access, path = &plan.IndexUnion{Table: t.Name, Seeks: seeks}, plan.AccessIndexUnion
	}
	return res(Result{
		// Index access can overscan (inclusive range bounds, partial
		// sargability), so the full predicate is re-applied.
		Plan:           withFilter(access, simplified),
		Path:           path,
		ScanPlan:       fullScan(simplified),
		EstSelectivity: sel,
		ScanCost:       scanCost,
		IndexCost:      indexCost,
	})
}

var inf = 1e308

// seekProbeCost is the planning cost of one B+-tree descent. The tree is
// in memory, so a probe is far cheaper than a page read; wide IN
// expansions (many probes) stay attractive when they pinpoint few rows.
const seekProbeCost = 0.25

// columnarCPUFactor discounts RowCPUCost when a scan can run against a
// fresh column-group sidecar: vectorized selection over typed vectors
// costs a fraction of tuple decode + tree-walking Eval per row.
const columnarCPUFactor = 0.25

func withFilter(n plan.Node, pred expr.Expr) plan.Node {
	if _, isTrue := pred.(expr.TrueExpr); isTrue {
		return n
	}
	return &plan.Filter{Child: n, Pred: pred}
}

// intBounds tightens fractional range bounds over INT columns: for an
// integer x, "x >= 1.9" is "x >= 2" and "x < 2.6" is "x <= 2". Sound by
// the column's declared type; it turns the float cut points of
// clustering envelopes into integer ranges the IN-expansion can use.
func intBounds(t *catalog.Table, c expr.Conjunct) expr.Conjunct {
	out := make([]expr.Expr, len(c.Conds))
	for i, cond := range c.Conds {
		out[i] = cond
		cmp, ok := cond.(expr.Cmp)
		if !ok || cmp.Val.Kind() != value.KindFloat {
			continue
		}
		o := t.Schema.Ordinal(cmp.Col)
		if o < 0 || t.Schema.Col(o).Kind != value.KindInt {
			continue
		}
		f := cmp.Val.AsFloat()
		switch cmp.Op {
		case expr.OpGe:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpGe, Val: value.Int(int64(math.Ceil(f)))}
		case expr.OpGt:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpGe, Val: value.Int(int64(math.Floor(f)) + 1)}
		case expr.OpLe:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpLe, Val: value.Int(int64(math.Floor(f)))}
		case expr.OpLt:
			out[i] = expr.Cmp{Col: cmp.Col, Op: expr.OpLe, Val: value.Int(int64(math.Ceil(f)) - 1)}
		}
	}
	return expr.Conjunct{Conds: out}
}

// rangeToIn rewrites closed integer ranges into IN conditions: a range
// like 2 <= col <= 4 over INT values becomes col IN (2,3,4), which the
// composite-index matcher can use as an equality prefix. The expansion
// enumerates the integers in the range itself — no statistics involved —
// so it is sound regardless of data changes. Open and non-integer
// ranges are left alone.
func rangeToIn(ts *stats.TableStats, c expr.Conjunct, cfg Config) expr.Conjunct {
	simplified, sat := expr.SimplifyConjunct(c.Conds)
	if !sat {
		return c
	}
	type colRange struct {
		col string
		iv  interval.Interval
	}
	ranges := map[string]*colRange{}
	var order []string
	var passthrough []expr.Expr
	for _, cond := range simplified {
		cmp, ok := cond.(expr.Cmp)
		iv, bounded := cmp.Interval()
		if !ok || !bounded || cmp.Op == expr.OpEq {
			passthrough = append(passthrough, cond)
			continue
		}
		key := norm(cmp.Col)
		r := ranges[key]
		if r == nil {
			r = &colRange{col: cmp.Col}
			ranges[key] = r
			order = append(order, key)
		}
		r.iv = r.iv.Intersect(iv)
	}
	out := append([]expr.Expr(nil), passthrough...)
	for _, key := range order {
		r := ranges[key]
		vals, ok := enumerateIntRange(r.iv, cfg.MaxInExpansion)
		switch {
		case ok && len(vals) == 0:
			out = append(out, expr.FalseExpr{})
		case ok && len(vals) == 1:
			out = append(out, expr.Cmp{Col: r.col, Op: expr.OpEq, Val: vals[0]})
		case ok:
			out = append(out, expr.In{Col: r.col, Vals: vals})
		default:
			out = append(out, expr.RangeConds(r.col, r.iv)...)
		}
	}
	_ = ts
	return expr.Conjunct{Conds: out}
}

// enumerateIntRange lists the integers in iv, when both its bounds are
// INT values and the count is within max.
func enumerateIntRange(iv interval.Interval, max int) ([]value.Value, bool) {
	lo, loInc, hasLo := iv.Lo()
	hi, hiInc, hasHi := iv.Hi()
	if !hasLo || !hasHi {
		return nil, false
	}
	if lo.Kind() != value.KindInt || hi.Kind() != value.KindInt {
		return nil, false
	}
	a, b := lo.AsInt(), hi.AsInt()
	if !loInc {
		a++
	}
	if !hiInc {
		b--
	}
	if b < a {
		return nil, true // empty range
	}
	if b-a+1 > int64(max) {
		return nil, false
	}
	out := make([]value.Value, 0, b-a+1)
	for v := a; v <= b; v++ {
		out = append(out, value.Int(v))
	}
	return out, true
}

// candidate is the seek set serving one disjunct through one index.
type candidate struct {
	seeks   []*plan.IndexSeek
	estRows float64
}

// bestSeeks finds the cheapest index application for one conjunct, or
// nil if no index is usable.
func bestSeeks(t *catalog.Table, ts *stats.TableStats, c expr.Conjunct, cfg Config) *candidate {
	// Bucket the conjunct's conditions per column.
	eq := map[string]value.Value{}
	in := map[string][]value.Value{}
	rng := map[string]interval.Interval{}
	var consumedExpr = map[string][]expr.Expr{}
	for _, cond := range c.Conds {
		switch x := cond.(type) {
		case expr.Cmp:
			col := norm(x.Col)
			switch x.Op {
			case expr.OpEq:
				eq[col] = x.Val
				consumedExpr[col] = append(consumedExpr[col], x)
			case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
				iv, _ := x.Interval()
				rng[col] = rng[col].Intersect(iv)
				consumedExpr[col] = append(consumedExpr[col], x)
			}
		case expr.In:
			col := norm(x.Col)
			if len(x.Vals) <= cfg.MaxInExpansion {
				in[col] = x.Vals
				consumedExpr[col] = append(consumedExpr[col], x)
			}
		}
	}

	var best *candidate
	bestCost := inf
	for _, ix := range t.Indexes() {
		cand := matchIndex(t, ts, ix, eq, in, rng, consumedExpr, cfg)
		if cand == nil {
			continue
		}
		cost := cand.estRows*cfg.RandomPageCost + float64(len(cand.seeks))*seekProbeCost
		if cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	return best
}

// matchIndex matches a conjunct's per-column conditions against one
// index's column order: an equality (or small IN) prefix, optionally
// followed by one range column.
func matchIndex(t *catalog.Table, ts *stats.TableStats, ix *catalog.Index,
	eq map[string]value.Value, in map[string][]value.Value,
	rng map[string]interval.Interval, consumed map[string][]expr.Expr, cfg Config) *candidate {

	type prefixAlt struct {
		vals []value.Value
	}
	alts := []prefixAlt{{}}
	var sargable []expr.Expr
	var seekRange interval.Interval
	matchedAny := false

	for _, col := range ix.Columns {
		cn := norm(col)
		if v, ok := eq[cn]; ok {
			for i := range alts {
				alts[i].vals = append(alts[i].vals, v)
			}
			sargable = append(sargable, consumed[cn]...)
			matchedAny = true
			continue
		}
		if vals, ok := in[cn]; ok && len(alts)*len(vals) <= cfg.MaxInExpansion {
			// IN consumes the column as equality alternatives; the
			// prefix continues through it while total seek fan-out stays
			// within budget.
			var next []prefixAlt
			for _, a := range alts {
				for _, v := range vals {
					nv := make([]value.Value, len(a.vals), len(a.vals)+1)
					copy(nv, a.vals)
					next = append(next, prefixAlt{vals: append(nv, v)})
				}
			}
			alts = next
			sargable = append(sargable, consumed[cn]...)
			matchedAny = true
			continue
		}
		if iv, ok := rng[cn]; ok {
			seekRange = iv
			sargable = append(sargable, consumed[cn]...)
			matchedAny = true
		}
		break // first non-equality column ends the prefix
	}
	if !matchedAny {
		return nil
	}
	seeks := make([]*plan.IndexSeek, 0, len(alts))
	for _, a := range alts {
		seeks = append(seeks, &plan.IndexSeek{
			Table:  t.Name,
			Index:  ix.Name,
			EqVals: a.vals,
			Range:  seekRange,
		})
	}
	selPart := ts.Selectivity(expr.NewAnd(sargable...))
	rows := selPart * float64(t.Heap.Len())
	return &candidate{seeks: seeks, estRows: rows}
}

func norm(s string) string {
	b := []byte(s)
	for i := range b {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

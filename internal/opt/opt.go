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
	"slices"
	"strings"

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
	ixs := t.Indexes()
	for _, c := range d.Disjuncts {
		var rows float64
		var ok bool
		if seeks, rows, ok = bestSeeks(seeks, t, ts, ixs, rangeToIn(t, intBounds(t, c), cfg), cfg); !ok {
			return seqRes(inf)
		}
		indexRows += rows
	}
	if len(seeks) == 0 {
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
	// Two disjuncts can ask for the same seek; it is walked once. The
	// estimate above still counts it twice.
	seeks = dedupSeeks(seeks)
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
// clustering envelopes into integer ranges the IN-expansion can use. It
// copies c's conditions only when it tightens one of them.
func intBounds(t *catalog.Table, c expr.Conjunct) expr.Conjunct {
	var out []expr.Expr
	for i, cond := range c.Conds {
		cmp, ok := cond.(expr.Cmp)
		if !ok || cmp.Val.Kind() != value.KindFloat {
			continue
		}
		o := t.Schema.Ordinal(cmp.Col)
		if o < 0 || t.Schema.Col(o).Kind != value.KindInt {
			continue
		}
		f := cmp.Val.AsFloat()
		var tight expr.Cmp
		switch cmp.Op {
		case expr.OpGe:
			tight = expr.Cmp{Col: cmp.Col, Op: expr.OpGe, Val: value.Int(int64(math.Ceil(f)))}
		case expr.OpGt:
			tight = expr.Cmp{Col: cmp.Col, Op: expr.OpGe, Val: value.Int(int64(math.Floor(f)) + 1)}
		case expr.OpLe:
			tight = expr.Cmp{Col: cmp.Col, Op: expr.OpLe, Val: value.Int(int64(math.Floor(f)))}
		case expr.OpLt:
			tight = expr.Cmp{Col: cmp.Col, Op: expr.OpLe, Val: value.Int(int64(math.Ceil(f)) - 1)}
		default:
			continue
		}
		if out == nil {
			out = slices.Clone(c.Conds)
		}
		out[i] = tight
	}
	if out == nil {
		return c
	}
	return expr.Conjunct{Conds: out}
}

// rangeToIn rewrites closed integer ranges over INT columns into IN
// conditions: 2 <= col <= 4 becomes col IN (2,3,4), which the
// composite-index matcher can use as an equality prefix. The expansion
// enumerates the integers in the range itself — no statistics involved —
// so it is sound regardless of data changes; on a FLOAT column it would
// drop 2.5, so only the column's declared type lets it happen. Other
// ranges are left alone, as the conditions the conjunct boxed them in.
func rangeToIn(t *catalog.Table, c expr.Conjunct, cfg Config) expr.Conjunct {
	simplified, sat := expr.SimplifyConjunct(c.Conds)
	if !sat {
		return c
	}
	type colRange struct {
		col string
		iv  interval.Interval
	}
	var buf [4]colRange
	ranges := buf[:0]
	out := make([]expr.Expr, 0, len(simplified))
	for _, cond := range simplified {
		cmp, ok := cond.(expr.Cmp)
		iv, bounded := cmp.Interval()
		if !ok || !bounded || cmp.Op == expr.OpEq {
			out = append(out, cond)
			continue
		}
		i := 0
		for i < len(ranges) && !strings.EqualFold(ranges[i].col, cmp.Col) {
			i++
		}
		if i == len(ranges) {
			ranges = append(ranges, colRange{col: cmp.Col})
		}
		ranges[i].iv = ranges[i].iv.Intersect(iv)
	}
	for _, r := range ranges {
		var vals []value.Value
		ok := false
		if o := t.Schema.Ordinal(r.col); o >= 0 && t.Schema.Col(o).Kind == value.KindInt {
			vals, ok = enumerateIntRange(r.iv, cfg.MaxInExpansion)
		}
		switch {
		case ok && len(vals) == 0:
			out = append(out, expr.FalseExpr{})
		case ok && len(vals) == 1:
			out = append(out, expr.Cmp{Col: r.col, Op: expr.OpEq, Val: vals[0]})
		case ok:
			out = append(out, expr.In{Col: r.col, Vals: vals})
		default:
			out = expr.AppendRangeConds(out, r.col, r.iv, simplified)
		}
	}
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

// colConds is what one conjunct says about one column that a seek can
// use: its last equality, its last IN list within the expansion budget,
// and the intersection of its range conditions.
type colConds struct {
	col                  string
	eq                   value.Value
	in                   []value.Value
	rng                  interval.Interval
	hasEq, hasIn, hasRng bool
}

// sargable reports whether cond is a condition a seek can use — an =,
// <, <=, > or >= comparison, or an IN list within the expansion budget —
// and names its column.
func sargable(cond expr.Expr, cfg Config) (col string, ok bool) {
	switch x := cond.(type) {
	case expr.Cmp:
		return x.Col, x.Op != expr.OpNe
	case expr.In:
		return x.Col, len(x.Vals) <= cfg.MaxInExpansion
	}
	return "", false
}

// bucket appends to cols, per column in the order conds first name it,
// what conds' sargable conditions say about it.
func bucket(cols []colConds, conds []expr.Expr, cfg Config) []colConds {
	for _, cond := range conds {
		col, ok := sargable(cond, cfg)
		if !ok {
			continue
		}
		i := colIndex(cols, col)
		if i < 0 {
			i, cols = len(cols), append(cols, colConds{col: col})
		}
		cc := &cols[i]
		switch x := cond.(type) {
		case expr.Cmp:
			if x.Op == expr.OpEq {
				cc.eq, cc.hasEq = x.Val, true
				break
			}
			iv, _ := x.Interval()
			cc.rng, cc.hasRng = cc.rng.Intersect(iv), true
		case expr.In:
			cc.in, cc.hasIn = x.Vals, true
		}
	}
	return cols
}

// colIndex is the position of col's entry in cols, or -1.
func colIndex(cols []colConds, col string) int {
	for i := range cols {
		if strings.EqualFold(cols[i].col, col) {
			return i
		}
	}
	return -1
}

// keyRange is the interval holding every value that satisfies cc's
// range, its equality and its IN list — from its least value to its
// greatest, since rangeToIn has turned a closed INT range into one; ok is
// false when it is unbounded.
func (cc colConds) keyRange() (iv interval.Interval, ok bool) {
	iv = cc.rng
	if cc.hasEq {
		iv = iv.Intersect(interval.Point(cc.eq))
	}
	if cc.hasIn {
		var lo, hi value.Value // NULL matches no row: it bounds nothing
		for _, v := range cc.in {
			if !v.IsNull() && (lo.IsNull() || value.Compare(v, lo) < 0) {
				lo = v
			}
			if !v.IsNull() && (hi.IsNull() || value.Compare(v, hi) > 0) {
				hi = v
			}
		}
		iv = iv.Intersect(interval.Above(lo, true)).Intersect(interval.Below(hi, true))
	}
	_, _, hasLo := iv.Lo()
	_, _, hasHi := iv.Hi()
	return iv, hasLo || hasHi
}

// bestSeeks finds the cheapest application of one of ixs to one
// conjunct and appends its seeks to dst, with the rows they are
// estimated to fetch; ok is false if no index is usable.
func bestSeeks(dst []*plan.IndexSeek, t *catalog.Table, ts *stats.TableStats, ixs []*catalog.Index,
	c expr.Conjunct, cfg Config) (_ []*plan.IndexSeek, estRows float64, ok bool) {
	var buf [8]colConds
	cols := bucket(buf[:0], c.Conds, cfg)
	var best match
	bestCost := inf
	for _, ix := range ixs {
		m, ok := matchIndex(t, ts, ix, cols, c.Conds, cfg)
		if !ok {
			continue
		}
		if cost := m.estRows*cfg.RandomPageCost + float64(m.seeks)*seekProbeCost; cost < bestCost {
			best, bestCost = m, cost
		}
	}
	if best.ix == nil {
		return dst, 0, false
	}
	return best.build(dst, t, cols), best.estRows, true
}

// match is one index's application to one conjunct: the leading index
// columns that bound its seeks, and what they are estimated to fetch.
type match struct {
	ix *catalog.Index
	// bound is how many leading columns bound the seeks: an equality (or
	// small IN) prefix, then the range column when ranged.
	bound   int
	ranged  bool
	seeks   int // the product of the prefix's IN list lengths
	estRows float64
}

// matchIndex matches a conjunct's per-column conditions against one
// index's column order: an equality (or small IN) prefix, optionally
// followed by one range column. ok is false when the first index column
// has no condition.
func matchIndex(t *catalog.Table, ts *stats.TableStats, ix *catalog.Index,
	cols []colConds, conds []expr.Expr, cfg Config) (m match, ok bool) {

	m = match{ix: ix, seeks: 1}
	for _, col := range ix.Columns {
		i := colIndex(cols, col)
		if i < 0 {
			break
		}
		cc := &cols[i]
		if cc.hasEq {
			m.bound++
			continue
		}
		if cc.hasIn && m.seeks*len(cc.in) <= cfg.MaxInExpansion {
			// IN consumes the column as equality alternatives; the
			// prefix continues through it while total seek fan-out stays
			// within budget.
			m.seeks *= len(cc.in)
			m.bound++
			continue
		}
		if cc.hasRng {
			m.bound++
			m.ranged = true
		}
		break // first non-equality column ends the prefix
	}
	if m.bound == 0 {
		return m, false
	}
	// The estimate is of the conditions on the bounding columns, in
	// index order and, per column, in the conjunct's.
	var buf [8]expr.Expr
	sarg := buf[:0]
	for _, col := range ix.Columns[:m.bound] {
		for _, cond := range conds {
			if name, ok := sargable(cond, cfg); ok && strings.EqualFold(name, col) {
				sarg = append(sarg, cond)
			}
		}
	}
	m.estRows = ts.Selectivity(expr.NewAnd(sarg...)) * float64(t.Heap.Len())
	return m, true
}

// build appends m's seeks to dst: one per combination of the prefix's IN
// values, the first column's varying slowest. They share one key filter:
// the conditions on the index columns after their bounds.
func (m match) build(dst []*plan.IndexSeek, t *catalog.Table, cols []colConds) []*plan.IndexSeek {
	prefix := m.bound
	var rng interval.Interval
	if m.ranged {
		prefix--
		rng = cols[colIndex(cols, m.ix.Columns[prefix])].rng
	}
	var keys []plan.KeyCond
	for pos := m.bound; pos < len(m.ix.Columns); pos++ {
		i := colIndex(cols, m.ix.Columns[pos])
		if i < 0 {
			continue
		}
		if iv, ok := cols[i].keyRange(); ok {
			keys = append(keys, plan.KeyCond{Col: m.ix.Columns[pos], Pos: pos, Range: iv})
		}
	}
	var pbuf [8]int
	pre := pbuf[:0] // the prefix columns' places in cols
	for _, col := range m.ix.Columns[:prefix] {
		pre = append(pre, colIndex(cols, col))
	}
	seeks := make([]plan.IndexSeek, m.seeks)
	vals := make([]value.Value, m.seeks*prefix)
	for k := range seeks {
		var eq []value.Value
		if prefix > 0 {
			eq = vals[k*prefix : (k+1)*prefix : (k+1)*prefix]
		}
		rest := k
		for j := prefix - 1; j >= 0; j-- {
			if cc := &cols[pre[j]]; cc.hasEq {
				eq[j] = cc.eq
			} else {
				eq[j] = cc.in[rest%len(cc.in)]
				rest /= len(cc.in)
			}
		}
		seeks[k] = plan.IndexSeek{Table: t.Name, Index: m.ix.Name, EqVals: eq, Range: rng, KeyFilter: keys}
		dst = append(dst, &seeks[k])
	}
	return dst
}

// dedupSeeksMax bounds the union whose seeks are compared pairwise for
// repeats. Past it the comparisons would cost more than walking a
// repeated seek again; the executor dedups the RIDs either way.
const dedupSeeksMax = 256

// dedupSeeks drops every seek identical to an earlier one, in place.
func dedupSeeks(seeks []*plan.IndexSeek) []*plan.IndexSeek {
	if len(seeks) > dedupSeeksMax {
		return seeks
	}
	out := seeks[:0]
	for _, s := range seeks {
		if !slices.ContainsFunc(out, func(o *plan.IndexSeek) bool { return sameSeek(o, s) }) {
			out = append(out, s)
		}
	}
	return out
}

// sameSeek reports whether a and b are the same seek, value for value.
func sameSeek(a, b *plan.IndexSeek) bool {
	return a.Table == b.Table && a.Index == b.Index && a.Range == b.Range &&
		slices.Equal(a.EqVals, b.EqVals) && slices.Equal(a.KeyFilter, b.KeyFilter)
}

// Fused vectorized scan-filter over the column-group sidecar. The
// operator pulls whole column groups, evaluates the (adaptively
// ordered) predicate over selection vectors in internal/exec/vec, and
// reconstructs only the surviving rows as tuples, late and only in the
// columns the plan reads (decodeMask) — the Predict and residual-filter
// operators above it therefore run on envelope survivors only, and a
// survivor costs what the plan uses of it.
//
// Execution proceeds in two phases. The first warmupGroups groups are
// processed serially by the consumer with term ordering in measurement
// mode (every term evaluated, pass rates recorded). The predicate is
// then frozen — orders picked, short-circuiting enabled — and the
// remaining groups either continue serially (DOP 1) or fan out to a
// morsel-style worker pool with one group per claim. Because the warmup
// is serial and the frozen per-group evaluation is independent of
// scheduling, output AND per-term counters are deterministic at any
// DOP, and the output row order matches the row-path scan exactly
// (groups are built in heap order and reassembled in group order).
//
// The state the phases share is a vecCore; a partial aggregate runs the
// same two phases over one (aggexec.go), with a groupScan — the serial
// consumer's one-group-at-a-time reader — as each worker's leaf.
package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"minequery/internal/catalog"
	"minequery/internal/exec/vec"
	"minequery/internal/expr"
	"minequery/internal/fault"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// warmupGroups is the number of column groups evaluated in measurement
// mode before the term order freezes.
const warmupGroups = 2

// vecCore is the scheduling-independent part of a columnar scan: shared
// by the serial consumer and the worker pool, which deliberately get no
// reference to the consumer state, and by a partial aggregate's workers.
type vecCore struct {
	table  *catalog.Table
	groups []*storage.ColGroup // the scan's groups: the surviving partitions', in heap order
	pred   *vec.Pred           // nil for an unfiltered scan
	opts   Options
	io     *storage.Counters
	// scanSt is the scan leaf's stats slot when the operator also plays
	// the Filter role (the instrumented wrapper then only sees
	// post-filter output); nil for a bare scan, whose wrapper already
	// counts everything.
	scanSt *OpStats
	// filtSt/base drive envelope-vs-residual attribution of rejected
	// rows, mirroring batchFilter.
	filtSt   *OpStats
	base     expr.Expr
	baseCols []bool // columnMask of base: all the re-check reads

	// ords (the ordinals decodeMask marks, in table order) and slot (the
	// capacity of a reconstructed tuple: those columns plus predictRoom)
	// shape the rows processGroup emits.
	ords []int
	slot int

	processed atomic.Int64
}

// selectGroup runs the scan-and-filter half of one column group: I/O
// and scan-stats accounting, predicate evaluation into a selection
// vector, and envelope-vs-residual attribution of the rejected rows.
// It returns the selection (nil when the scan is unfiltered) and the
// surviving row count. Safe for concurrent use with per-caller scratch.
func (c *vecCore) selectGroup(g *storage.ColGroup, sc *vec.Scratch) ([]int32, int) {
	if c.io != nil {
		// One sidecar group read counts as one sequential page; every row
		// of the group is touched column-wise.
		c.io.SeqPageReads.Add(1)
		c.io.TupleReads.Add(int64(g.N))
	}
	if c.scanSt != nil {
		c.scanSt.Rows.Add(int64(g.N))
		c.scanSt.Batches.Add(1)
	}
	var sel []int32
	n := g.N
	if c.pred != nil {
		sel = c.pred.FilterGroup(g, sc)
		n = len(sel)
	}
	c.processed.Add(1)
	if c.pred != nil && c.base != nil && c.filtSt != nil {
		// Re-check each rejected row against the un-augmented baseline to
		// attribute the rejection to the envelope or the residual, through
		// one tuple holding just the baseline's columns.
		row := make(value.Tuple, len(g.Cols))
		j := 0
		for i := 0; i < g.N; i++ {
			if j < len(sel) && int(sel[j]) == i {
				j++
				continue
			}
			for ci, on := range c.baseCols {
				if on {
					row[ci] = g.Cols[ci].Value(i)
				}
			}
			if c.base.Eval(c.table.Schema, row) {
				c.filtSt.EnvRejected.Add(1)
			} else {
				c.filtSt.ResidRejected.Add(1)
			}
		}
	}
	return sel, n
}

// groupRows is where one column group's survivors are reconstructed:
// the tuples in arena, the batches cut from rows.
type groupRows struct {
	arena   rowArena
	rows    *Batch
	batches []Batch
}

// processGroup filters one column group and reconstructs the surviving
// rows, cut into batches of BatchSize in group order: the columns ords
// names and only those, each tuple with slot capacity. The rows go
// into reuse, over whatever it held — the serial consumer's, whose
// batches are all consumed before it selects the next group. The pool's
// workers pass nil: their batches wait on another goroutine, so each
// group gets storage of its own, sized to its survivors. Safe for
// concurrent use with per-caller scratch and storage.
func (c *vecCore) processGroup(g *storage.ColGroup, sc *vec.Scratch, reuse *groupRows) []Batch {
	sel, n := c.selectGroup(g, sc)
	if n == 0 {
		return nil
	}
	out := reuse
	if out == nil {
		rows := make(Batch, 0, n)
		out = &groupRows{arena: privateArena(c.slot, n), rows: &rows}
	}
	out.arena.reset()
	rows := (*out.rows)[:0]
	for k := 0; k < n; k++ {
		ri := k
		if sel != nil {
			ri = int(sel[k])
		}
		row := out.arena.next()[:len(c.ords)]
		for j, ci := range c.ords {
			row[j] = g.Cols[ci].Value(ri)
		}
		rows = append(rows, row)
	}
	batches := out.batches[:0]
	for start, size := 0, c.opts.BatchSize; start < n; start += size {
		end := min(start+size, n)
		batches = append(batches, rows[start:end:end])
	}
	*out.rows, out.batches = rows, batches
	return batches
}

// newVecCore resolves a columnar-flagged scan (and the filter fused
// onto it, or nil) against the table's sidecar, to reconstruct rows of
// the shape cols. It returns nil — routing the caller to the row path —
// when the sidecar is stale or missing, or when the predicate has a
// shape the vectorized evaluator refuses.
func newVecCore(t *catalog.Table, x *plan.SeqScan, filter *plan.Filter, cols scanCols, opts Options) *vecCore {
	cs := t.ColumnStore()
	if cs == nil {
		return nil
	}
	c := &vecCore{table: t, opts: opts, io: ioOf(opts.Collector), groups: cs.Groups, slot: cols.slot}
	for ci := 0; ci < t.Schema.Len(); ci++ {
		if cols.need == nil || cols.need[ci] {
			c.ords = append(c.ords, ci)
		}
	}
	if filter != nil {
		vp, ok := vec.Compile(filter.Pred, t.Schema, t.Stats())
		if !ok {
			return nil
		}
		c.pred = vp
	}
	if x.Partitions != nil {
		keep := make(map[int]bool, len(x.Partitions))
		for _, p := range x.Partitions {
			keep[p] = true
		}
		c.groups = nil
		for _, g := range cs.Groups {
			if keep[g.Part] {
				c.groups = append(c.groups, g)
			}
		}
	}
	if col := opts.Collector; col != nil && filter != nil {
		c.scanSt = col.Op(x)
		if base := col.envBaseline(filter); base != nil {
			c.filtSt, c.base, c.baseCols = col.Op(filter), base, columnMask(t.Schema, expr.Columns(base))
		}
	}
	return c
}

// warm is how many leading groups are evaluated serially, in
// measurement mode, before freeze; the rest may then be scheduled in any
// order.
func (c *vecCore) warm() int {
	if c.pred == nil {
		return 0
	}
	return min(warmupGroups, len(c.groups))
}

// freeze ends measurement mode: the term order is picked and
// short-circuiting enabled.
func (c *vecCore) freeze() {
	if c.pred != nil {
		c.pred.Freeze()
	}
}

// groupScan reads one column group of a vecCore at a time: the group's
// survivors, in batches of BatchSize, reconstructed into pooled storage
// it reuses for the next group and gives back at Close. It is the serial
// half of vecScan, and on its own the columnar leaf of an aggregate
// worker, which points it at each group it claims (g) and drains it
// before claiming the next.
type groupScan struct {
	*vecCore
	schema  *value.Schema
	sc      *vec.Scratch      // nil once Close has handed it back
	out     groupRows         // the current group's rows, reused for the next
	g       *storage.ColGroup // filtered at the next NextBatch, when non-nil
	pending []Batch
}

func newGroupScan(core *vecCore, schema *value.Schema) groupScan {
	return groupScan{vecCore: core, schema: schema, sc: vec.NewScratch(),
		out: groupRows{arena: pooledArena(core.slot, core.opts.BatchSize), rows: pooledBatch(0)}}
}

func (s *groupScan) Schema() *value.Schema { return s.schema }

// take returns the current group's next batch, filtering the group
// first if it was just pointed at; false once the group is spent.
func (s *groupScan) take() (Batch, bool) {
	if s.g != nil {
		s.pending, s.g = s.processGroup(s.g, s.sc, &s.out), nil
	}
	if len(s.pending) == 0 {
		return nil, false
	}
	b := s.pending[0]
	s.pending = s.pending[1:]
	return b, true
}

func (s *groupScan) NextBatch() (Batch, bool, error) {
	if err := s.hitBatch(); err != nil {
		return nil, false, err
	}
	b, ok := s.take()
	return b, !ok, nil
}

// Close hands the scratch, the arena and the row slice back.
func (s *groupScan) Close() {
	s.g, s.pending = nil, nil
	if s.sc != nil {
		s.sc.Release()
		s.sc = nil
	}
	s.out.arena.release()
	putBatch(s.out.rows)
	s.out.rows = nil
}

// hitBatch passes a columnar leaf's fault.SiteBatch.
func (c *vecCore) hitBatch() error {
	if ferr := c.opts.Faults.Hit(fault.SiteBatch); ferr != nil {
		return fmt.Errorf("exec: columnar scan %s: %w", c.table.Name, ferr)
	}
	return nil
}

// vecScan is the consumer end. NextBatch runs on a single goroutine;
// after the warmup it may fan the remaining groups out to the morsel
// pool, one group per claim, reassembled in group order like
// parallelScan.
type vecScan struct {
	groupScan // the consumer's own: the warm-up groups, every group at DOP 1
	ctx       context.Context
	scanNode  plan.Node
	col       *Collector

	gi     int
	frozen bool
	rest   *orderedScan // non-nil once the remaining groups run on the pool

	err      error
	reported bool
}

// newVecScan builds the fused operator for a columnar-flagged scan (and
// optional filter directly above it), or nil when newVecCore refuses.
// cols is the shape of the rows it reconstructs.
func newVecScan(ctx context.Context, t *catalog.Table, x *plan.SeqScan, filter *plan.Filter, cols scanCols, opts Options) *vecScan {
	core := newVecCore(t, x, filter, cols, opts)
	if core == nil {
		return nil
	}
	return &vecScan{groupScan: newGroupScan(core, cols.schema), ctx: ctx, scanNode: x, col: opts.Collector}
}

func (s *vecScan) NextBatch() (Batch, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	if s.err = s.hitBatch(); s.err != nil {
		return nil, false, s.err
	}
	for s.rest == nil {
		if s.err = ctxErr(s.ctx); s.err != nil {
			return nil, false, s.err
		}
		if b, ok := s.take(); ok {
			return b, false, nil
		}
		if !s.frozen && s.gi >= s.warm() {
			s.freeze()
			s.frozen = true
			if first := s.gi; s.opts.DOP > 1 && len(s.groups)-first > 1 {
				core, groups := s.vecCore, s.groups[first:]
				s.gi = len(s.groups)
				pool := newMorselPool(s.ctx, s.opts, "columnar scan "+s.table.Name+" group", len(groups))
				s.rest = startOrdered(pool, func() (func(int) ([]Batch, int64, error), func()) {
					sc := vec.NewScratch()
					return func(i int) ([]Batch, int64, error) {
						return core.processGroup(groups[i], sc, nil), int64(groups[i].N), nil
					}, sc.Release
				})
				break
			}
		}
		if s.gi >= len(s.groups) {
			s.reportInfo()
			return nil, true, nil
		}
		s.g = s.groups[s.gi]
		s.gi++
	}
	b, done, err := s.rest.nextBatch()
	if done {
		s.reportInfo()
	}
	s.err = err
	return b, done, err
}

// reportInfo publishes the columnar-scan actuals (groups processed,
// frozen term order, per-term counters) to the collector, once.
func (s *vecScan) reportInfo() {
	if s.reported {
		return
	}
	s.reported = true
	if s.col == nil {
		return
	}
	s.col.setVecInfo(s.scanNode, s.info())
}

// info snapshots the columnar actuals (shared with the partial
// aggregate, which reports the same way for its scan leaf).
func (c *vecCore) info() *VecScanInfo {
	info := &VecScanInfo{Groups: c.processed.Load()}
	if c.pred != nil {
		r := c.pred.Report()
		info.Combiner = r.Combiner
		info.Order = append([]int(nil), r.Order...)
		if len(r.Terms) > 0 {
			info.Terms = make([]VecTermActual, 0, len(r.Terms))
		}
		for _, t := range r.Terms {
			info.Terms = append(info.Terms, VecTermActual{
				Index: t.Index, Term: t.Term, Evaluated: t.Evaluated, Skipped: t.Skipped, Passed: t.Passed,
			})
		}
	}
	return info
}

// Close stops the workers, publishes the scan info so a truncated query
// (LIMIT) still reports its columnar actuals, and hands the consumer's
// scratch back. The workers hold scratches of their own, which each
// returns when it exits.
func (s *vecScan) Close() {
	if s.rest != nil {
		s.rest.close()
	}
	s.gi = len(s.groups)
	s.reportInfo()
	s.groupScan.Close()
}

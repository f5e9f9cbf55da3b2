// Fused vectorized scan-filter over the column-group sidecar. The
// operator pulls whole column groups, evaluates the (adaptively
// ordered) predicate over selection vectors in internal/exec/vec, and
// reconstructs only the surviving rows as tuples, late and only in the
// columns the plan reads (decodeMask) — the Predict and residual-filter
// operators above it therefore run on envelope survivors only, and a
// survivor costs what the plan uses of it.
//
// Execution proceeds in two phases. The first warmupGroups groups are
// processed serially with term ordering in measurement mode (every term
// evaluated, pass rates recorded). The predicate is then frozen — orders
// picked, short-circuiting enabled — and the remaining groups may be
// processed in any order. The column groups are the units of the scan
// (scanUnits, parallel.go), those first groups its warm prefix and the
// freeze its seal; groupScan, which reads one group at a time, is the
// leaf that reads a unit, for the ordered scan and for a partial
// aggregate alike. Because the warmup is serial and the frozen per-group
// evaluation is independent of scheduling, output AND per-term counters
// are deterministic at any DOP, and the output row order matches the
// row-path scan exactly (groups are built in heap order and reassembled
// in group order).
package exec

import (
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

// vecCore is the scheduling-independent part of a columnar scan, shared
// by every groupScan reading its groups.
type vecCore struct {
	table  *catalog.Table
	groups []*storage.ColGroup // the scan's groups: the surviving partitions', in heap order
	pred   *vec.Pred           // this execution's, of the Bound's program; nil for an unfiltered scan
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
	// shape the rows a groupScan reconstructs; both are the Bound's.
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

// newVecCore is one execution's columnar core over the scan at ordinal
// si of b, with the Filter at ordinal fi fused onto it (-1 for none; its
// predicate must be one vec compiled, prog). It returns nil — routing the
// caller to the row path — when the table's sidecar is stale or missing.
func newVecCore(b *Bound, si, fi int, opts Options) *vecCore {
	bs := &b.nodes[si]
	t := b.table
	cs := t.ColumnStore()
	if cs == nil {
		return nil
	}
	c := &vecCore{table: t, opts: opts, io: ioOf(opts.Collector), groups: cs.Groups, ords: bs.ords, slot: b.cols.slot}
	if fi >= 0 {
		c.pred = b.nodes[fi].prog.New()
	}
	if parts := bs.node.(*plan.SeqScan).Partitions; parts != nil {
		keep := make(map[int]bool, len(parts))
		for _, p := range parts {
			keep[p] = true
		}
		c.groups = nil
		for _, g := range cs.Groups {
			if keep[g.Part] {
				c.groups = append(c.groups, g)
			}
		}
	}
	if col := opts.Collector; col != nil && fi >= 0 {
		c.scanSt = col.slot(si)
		if base := col.envBaseline(b.nodes[fi].node); base != nil {
			c.filtSt, c.base, c.baseCols = col.slot(fi), base, columnMask(t.Schema, expr.Columns(base))
		}
	}
	return c
}

// groupScan reads one column group of a vecCore at a time: the group
// point gives it, its survivors in batches of BatchSize, reconstructed
// into its batchStore. It is the leaf that reads a unit of a columnar
// scan, wherever that unit runs.
type groupScan struct {
	*vecCore
	schema  *value.Schema
	sc      *vec.Scratch      // nil once Close has handed it back
	store   batchStore        // the current group's rows
	batches []Batch           // cut from them
	g       *storage.ColGroup // filtered at the next NextBatch, when non-nil
	read    int64             // the rows of the group last pointed at
	next    int               // the next of batches to return
}

func newGroupScan(core *vecCore, schema *value.Schema, handOff bool) groupScan {
	return groupScan{vecCore: core, schema: schema, sc: vec.NewScratch(),
		store: newBatchStore(core.slot, core.opts.BatchSize, 0, handOff)}
}

// point makes group i the one the next NextBatch filters.
func (s *groupScan) point(i int) {
	s.g = s.groups[i]
	s.read = int64(s.g.N)
}

func (s *groupScan) scanned() int64 { return s.read }

func (s *groupScan) Schema() *value.Schema { return s.schema }

// NextBatch returns the current group's next batch, filtering the group
// first if it was just pointed at; done once the group is spent.
func (s *groupScan) NextBatch() (Batch, bool, error) {
	if ferr := s.opts.Faults.Hit(fault.SiteBatch); ferr != nil {
		return nil, false, fmt.Errorf("exec: columnar scan %s: %w", s.table.Name, ferr)
	}
	if s.g != nil {
		s.reconstruct(s.g)
		s.g, s.next = nil, 0
	}
	if s.next == len(s.batches) {
		return nil, true, nil
	}
	s.next++
	return s.batches[s.next-1], false, nil
}

// reconstruct filters group g and rebuilds its surviving rows, cut into
// batches of BatchSize in group order: the columns ords names and only
// those, each tuple with slot capacity. A pooled store's rows go over the
// last group's, whose batches are all consumed before the next group is
// selected; a handing-off one's go into fresh storage sized to the
// survivors.
func (s *groupScan) reconstruct(g *storage.ColGroup) {
	s.batches = s.batches[:0]
	sel, n := s.selectGroup(g, s.sc)
	if n == 0 {
		return
	}
	s.store.reset(n)
	rows := *s.store.rows
	for k := 0; k < n; k++ {
		ri := k
		if sel != nil {
			ri = int(sel[k])
		}
		row := s.store.arena.next()[:len(s.ords)]
		for j, ci := range s.ords {
			row[j] = g.Cols[ci].Value(ri)
		}
		rows = append(rows, row)
	}
	for start, size := 0, s.opts.BatchSize; start < n; start += size {
		end := min(start+size, n)
		s.batches = append(s.batches, rows[start:end:end])
	}
	*s.store.rows = rows
}

// Close hands the scratch and the store back.
func (s *groupScan) Close() {
	s.g, s.batches = nil, nil
	if s.sc != nil {
		s.sc.Release()
		s.sc = nil
	}
	s.store.release()
}

// info snapshots the columnar actuals: groups processed, the frozen term
// order, the per-term counters.
func (c *vecCore) info() *VecScanInfo {
	info := &VecScanInfo{Groups: c.processed.Load()}
	if c.pred != nil {
		info.Report = c.pred.Report()
	}
	return info
}

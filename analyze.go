package minequery

import (
	"fmt"
	"strings"
	"time"

	"minequery/internal/plan"
)

// OpActuals is one plan operator's estimated-vs-actual execution
// profile in an AnalyzeReport. Row and batch counts are exact and
// deterministic; Time is wall clock and varies run to run.
type OpActuals struct {
	// Op is the operator's one-line description (plan.Explain form);
	// Depth is its indentation level in the plan tree.
	Op    string
	Depth int
	// EstRows is the optimizer's output-cardinality estimate for this
	// operator; Rows is what it actually produced.
	EstRows float64
	Rows    int64
	Batches int64
	// Time is wall time inside the operator, inclusive of its children.
	Time time.Duration
	// Leaf I/O, set on the scan leaf only (HasIO): the query's own page
	// and tuple accounting.
	HasIO         bool
	SeqPageReads  int64
	RandPageReads int64
	TupleReads    int64
	// Filter profile (IsFilter): how many input rows the filter dropped,
	// and — when envelope attribution ran (HasAttribution) — how the
	// drops split between the added envelope and the query's own
	// residual predicate.
	IsFilter       bool
	Rejected       int64
	HasAttribution bool
	EnvRejected    int64
	ResidRejected  int64
}

// WorkerActuals is one morsel-scan worker's share of a parallel scan.
type WorkerActuals struct {
	Morsels int64
	Rows    int64
	Time    time.Duration
}

// AnalyzeReport is the structured EXPLAIN ANALYZE result: the executed
// plan annotated with per-operator actuals, parallel-scan worker
// shares, and the execution totals.
type AnalyzeReport struct {
	// Ops lists the plan operators in Explain order (pre-order walk).
	Ops []OpActuals
	// DOP is the effective scan parallelism; Workers has one entry per
	// morsel-scan worker when DOP > 1 and the plan scanned sequentially.
	DOP     int
	Workers []WorkerActuals
	// AccessPath classifies how the base table was read.
	AccessPath string
	// Stats is the execution's measured cost (same values as
	// Result.Stats).
	Stats ExecStats
	// Attribution reports whether envelope-vs-residual rejection
	// attribution ran (WithAnalyze).
	Attribution bool
	// Fallback reports that this execution is the degraded re-run on
	// the baseline sequential scan after the optimized index path
	// failed transiently; FallbackReason is the triggering error.
	Fallback       bool
	FallbackReason string
	// Retries counts transient failures absorbed by the retry layer
	// during this execution.
	Retries int64
	// PartitionsTotal/PartitionsPruned mirror the Result fields: how
	// many partitions the table has (0 when unpartitioned) and how many
	// the optimizer proved disjoint from the predicate.
	PartitionsTotal  int
	PartitionsPruned int
	// IsAggregate reports that the plan aggregated (GROUP BY or
	// aggregate select items); AggMerges counts the partial-aggregate
	// state merges folded into the final result (worker tables, columnar
	// group workers, partitions — and shards at a coordinator).
	IsAggregate bool
	AggMerges   int64
	// StorageFormat is "columnar" when the scan leaf ran on the
	// column-group sidecar ("" for row-path executions — the row format
	// is not reported so row-path output is unchanged). ColumnGroups is
	// the number of column groups the scan processed.
	StorageFormat string
	ColumnGroups  int64
	// TermCombiner ("AND"/"OR"), TermOrder, and Terms report the
	// adaptive predicate-term ordering of a fused columnar scan-filter:
	// the frozen evaluation order (original term indices) and each
	// term's measured evaluation/rejection counters. All deterministic
	// at any DOP (the warmup runs serially, then the order freezes).
	TermCombiner string
	TermOrder    []int
	Terms        []TermActuals
}

// TermActuals is one predicate term's measured counters in a columnar
// scan-filter: Evaluated + Skipped candidate rows reached it — Skipped
// those in column groups whose dictionaries answered the term without a
// loop over rows — and it rejected Rejected of them. Terms later in the
// frozen order see fewer candidates (short-circuiting), which is exactly
// the effect the ordering buys.
type TermActuals struct {
	Index     int
	Term      string
	Evaluated int64
	Skipped   int64
	Rejected  int64
}

// buildAnalyzeReport assembles r's report from the plan it executed,
// that execution's collector, and what the Result itself records.
func buildAnalyzeReport(r *Result) *AnalyzeReport {
	a := r.actuals
	root, col := a.root, a.col
	rep := &AnalyzeReport{
		DOP:              a.dop,
		AccessPath:       r.AccessPath,
		Stats:            r.Stats,
		Attribution:      a.attribution,
		Fallback:         r.Fallback,
		FallbackReason:   r.FallbackReason,
		Retries:          r.Retries,
		PartitionsTotal:  r.PartitionsTotal,
		PartitionsPruned: r.PartitionsPruned,
	}
	for _, w := range col.Workers() {
		rep.Workers = append(rep.Workers, WorkerActuals{
			Morsels: w.Morsels.Load(),
			Rows:    w.Rows.Load(),
			Time:    time.Duration(w.WallNanos.Load()),
		})
	}
	attrFilter := plan.Node(nil)
	if a.attribution {
		if f := scanLevelFilter(root); f != nil {
			attrFilter = f
		}
	}
	io := col.IO.Snapshot()
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		op := col.Op(n)
		oa := OpActuals{
			Op:      plan.Describe(n),
			Depth:   depth,
			EstRows: estimateRows(n, a.rowCount, r.EstSelectivity),
			Rows:    op.Rows.Load(),
			Batches: op.Batches.Load(),
			Time:    time.Duration(op.WallNanos.Load()),
		}
		switch x := n.(type) {
		case *plan.SeqScan, *plan.IndexSeek, *plan.IndexUnion, *plan.ConstScan:
			// Single-table plans have one scan leaf, so the query's whole
			// I/O attribution belongs to it.
			oa.HasIO = true
			oa.SeqPageReads = io.SeqPageReads
			oa.RandPageReads = io.RandPageReads
			oa.TupleReads = io.TupleReads
			if info := col.VecInfo(n); info != nil {
				rep.StorageFormat = "columnar"
				rep.ColumnGroups = info.Groups
				rep.TermCombiner = info.Combiner
				rep.TermOrder = append([]int(nil), info.Order...)
				if len(info.Terms) > 0 {
					rep.Terms = make([]TermActuals, 0, len(info.Terms))
				}
				for _, tm := range info.Terms {
					rep.Terms = append(rep.Terms, TermActuals{
						Index:     tm.Index,
						Term:      tm.Term,
						Evaluated: tm.Evaluated,
						Skipped:   tm.Skipped,
						Rejected:  tm.Evaluated + tm.Skipped - tm.Passed,
					})
				}
			}
		case *plan.Filter:
			oa.IsFilter = true
			oa.Rejected = col.Op(x.Child).Rows.Load() - oa.Rows
			if n == attrFilter {
				oa.HasAttribution = true
				oa.EnvRejected = op.EnvRejected.Load()
				oa.ResidRejected = op.ResidRejected.Load()
			}
		}
		rep.Ops = append(rep.Ops, oa)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if finalAggOf(root) != nil {
		rep.IsAggregate = true
		rep.AggMerges = col.AggMerges.Load()
	}
	return rep
}

// estimateRows is the optimizer's output-cardinality estimate for one
// operator: table cardinality at scan leaves, the data-predicate
// selectivity estimate at filters and index paths, pass-through for
// prediction joins and projections. Mining-predicate selectivity is
// unknown to the optimizer, so a post-prediction filter's est-vs-actual
// gap is expected — that gap is exactly what EXPLAIN ANALYZE surfaces.
func estimateRows(n plan.Node, rowCount int64, sel float64) float64 {
	switch x := n.(type) {
	case *plan.SeqScan:
		return float64(rowCount)
	case *plan.ConstScan:
		return 0
	case *plan.IndexSeek, *plan.IndexUnion:
		return sel * float64(rowCount)
	case *plan.Filter:
		return sel * float64(rowCount)
	case *plan.Predict:
		return estimateRows(x.Child, rowCount, sel)
	case *plan.Project:
		return estimateRows(x.Child, rowCount, sel)
	case *plan.Limit:
		child := estimateRows(x.Child, rowCount, sel)
		if child > float64(x.N) {
			return float64(x.N)
		}
		return child
	case *plan.HashAgg:
		// An ungrouped aggregate emits exactly one row. For GROUP BY the
		// optimizer keeps no group-key distinct counts, so the input
		// cardinality stands in as an upper bound; the est-vs-actual gap
		// is then the measured grouping factor.
		if len(x.GroupBy) == 0 {
			return 1
		}
		return estimateRows(x.Child, rowCount, sel)
	}
	return 0
}

// Render formats the report as indented text, one operator per line
// with its actuals in parentheses. elideTimings replaces every wall
// time (and the nondeterministic per-worker morsel distribution) with
// stable placeholders, so rendered output is byte-identical across
// runs — the golden-test and plan-diff mode.
func (r *AnalyzeReport) Render(elideTimings bool) string {
	var b strings.Builder
	for _, op := range r.Ops {
		b.WriteString(strings.Repeat("  ", op.Depth))
		b.WriteString(op.Op)
		fmt.Fprintf(&b, " (est_rows=%.0f act_rows=%d batches=%d time=%s",
			op.EstRows, op.Rows, op.Batches, renderTime(op.Time, elideTimings))
		if op.IsFilter {
			fmt.Fprintf(&b, " rejected=%d", op.Rejected)
			if op.HasAttribution {
				fmt.Fprintf(&b, " env_rejected=%d residual_rejected=%d", op.EnvRejected, op.ResidRejected)
			}
		}
		if op.HasIO {
			fmt.Fprintf(&b, " seq_pages=%d rand_pages=%d tuples=%d",
				op.SeqPageReads, op.RandPageReads, op.TupleReads)
		}
		b.WriteString(")\n")
	}
	if r.StorageFormat != "" {
		// Printed only for columnar executions, so row-path output (and
		// its golden files) is unchanged.
		fmt.Fprintf(&b, "storage: %s groups=%d\n", r.StorageFormat, r.ColumnGroups)
		if r.TermCombiner != "" {
			fmt.Fprintf(&b, "term order (%s): %v\n", r.TermCombiner, r.TermOrder)
			for _, t := range r.Terms {
				fmt.Fprintf(&b, "  term %d: %s evaluated=%d", t.Index, t.Term, t.Evaluated)
				if t.Skipped > 0 {
					fmt.Fprintf(&b, " skipped=%d", t.Skipped)
				}
				fmt.Fprintf(&b, " rejected=%d\n", t.Rejected)
			}
		}
	}
	if r.DOP > 1 && len(r.Workers) > 0 {
		fmt.Fprintf(&b, "workers: %d\n", len(r.Workers))
		if !elideTimings {
			// The morsel distribution across workers depends on scheduling,
			// so it is only shown in live (non-golden) output.
			for i, w := range r.Workers {
				fmt.Fprintf(&b, "  worker %d: morsels=%d rows=%d time=%s\n",
					i, w.Morsels, w.Rows, renderTime(w.Time, false))
			}
		}
	}
	if r.PartitionsTotal > 0 {
		fmt.Fprintf(&b, "partitions: %d/%d pruned\n", r.PartitionsPruned, r.PartitionsTotal)
	}
	if r.IsAggregate {
		// Merge count is deterministic for a fixed configuration: one
		// merge per extra worker table (plus one per extra shard at a
		// coordinator), so goldens at a pinned DOP stay byte-exact.
		fmt.Fprintf(&b, "aggregate: partial_merges=%d\n", r.AggMerges)
	}
	fmt.Fprintf(&b, "execution: path=%s seq_pages=%d rand_pages=%d tuples=%d cost_units=%.1f time=%s\n",
		r.AccessPath, r.Stats.SeqPageReads, r.Stats.RandPageReads, r.Stats.TupleReads,
		r.Stats.CostUnits, renderTime(r.Stats.Duration, elideTimings))
	if r.Retries > 0 {
		fmt.Fprintf(&b, "retries: %d transient failure(s) absorbed\n", r.Retries)
	}
	if r.Fallback {
		fmt.Fprintf(&b, "fallback: index path failed transiently (%s); re-ran baseline sequential scan\n", r.FallbackReason)
	}
	return b.String()
}

func renderTime(d time.Duration, elide bool) string {
	if elide {
		return "<elided>"
	}
	return d.String()
}

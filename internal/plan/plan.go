// Package plan defines the physical plan tree produced by the optimizer
// and consumed by the executor, plus the plan-signature machinery the
// experiments use to detect the paper's "plan changed" condition (the
// optimizer chose one or more indexes, or a constant scan).
package plan

import (
	"fmt"
	"strings"

	"minequery/internal/agg"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/value"
)

// Node is one physical plan operator.
type Node interface {
	// Children returns the operator's inputs.
	Children() []Node
	// Describe renders the operator (one line, without children).
	Describe() string
}

// SeqScan reads every row of a table — or, for a partitioned table with
// a pruned partition list, every row of the surviving partitions.
type SeqScan struct {
	Table string
	// Partitions lists the surviving partitions to scan, in ascending
	// order. Nil means all (the only form for unpartitioned tables).
	Partitions []int
	// PartsTotal is the table's partition count at plan time; 0 for
	// unpartitioned tables. It exists so EXPLAIN can report how many
	// partitions the optimizer pruned.
	PartsTotal int
	// Columnar marks the scan as eligible for the column-group
	// vectorized path. It is a hint, not a contract: if the table's
	// columnar sidecar is stale or missing at execution time, the scan
	// silently runs against the row heap with identical results.
	Columnar bool
}

// IndexSeek probes one index with an equality prefix and an optional
// range on the following column.
type IndexSeek struct {
	Table string
	Index string
	// EqVals are equality values for the leading index columns.
	EqVals []value.Value
	// Range bounds the next index column after the equality prefix; the
	// zero Interval is unbounded.
	Range interval.Interval
}

// IndexUnion fetches the union of several index seeks (for OR
// predicates), deduplicating RIDs before fetching rows.
type IndexUnion struct {
	Table string
	Seeks []*IndexSeek
}

// ConstScan produces no rows: the predicate was proven unsatisfiable
// (e.g. a NULL upper envelope), so the data need not be referenced at
// all — the paper's "Constant Scan" case.
type ConstScan struct {
	Table string
}

// Filter applies a residual predicate.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Project narrows the output to the named columns (empty = all).
type Project struct {
	Child Node
	Cols  []string
}

// Predict appends one predicted column produced by applying a mining
// model to each row (the executed form of a PREDICTION JOIN).
type Predict struct {
	Child Node
	// Model is the catalog model name; As is the output column name
	// (alias-qualified, e.g. "m.risk").
	Model string
	As    string
	// Version pins the model version the plan was optimized against;
	// the executor rejects the plan if the model has changed since.
	Version int64
}

// Limit stops after N rows.
type Limit struct {
	Child Node
	N     int64
}

// Mutation is the root of a DML plan: Op is "insert", "update", or
// "delete"; Child is the matching-row pipeline for update/delete (nil
// for insert, which has no read side) and Rows the literal row count
// for insert. The executor does not build Mutation nodes — the engine's
// write path drives the child pipeline itself under the table's write
// lock — but EXPLAIN renders them like any other plan.
type Mutation struct {
	Op    string
	Table string
	Child Node
	Rows  int
}

// AggPhase distinguishes the two halves of the split aggregation.
type AggPhase int

const (
	// AggPartial accumulates mergeable per-worker/per-shard states.
	AggPartial AggPhase = iota
	// AggFinal merges partial states and emits finalized rows.
	AggFinal
)

// String names the phase.
func (p AggPhase) String() string {
	if p == AggFinal {
		return "final"
	}
	return "partial"
}

// HashAgg is hash aggregation, always planned as a Final over a
// Partial. The Partial's child is the (possibly filtered/predicting)
// scan pipeline; the executor pushes the Partial into morsel workers,
// columnar group workers, and partitions, producing order-independent
// states the Final merges deterministically.
type HashAgg struct {
	Child Node
	Phase AggPhase
	// GroupBy are the grouping columns (input schema names).
	GroupBy []string
	// Aggs are the select-list items in output order.
	Aggs []agg.Item
}

// Children implements Node.
func (*SeqScan) Children() []Node    { return nil }
func (*IndexSeek) Children() []Node  { return nil }
func (*IndexUnion) Children() []Node { return nil }
func (*ConstScan) Children() []Node  { return nil }
func (f *Filter) Children() []Node   { return []Node{f.Child} }
func (p *Project) Children() []Node  { return []Node{p.Child} }
func (p *Predict) Children() []Node  { return []Node{p.Child} }
func (l *Limit) Children() []Node    { return []Node{l.Child} }
func (h *HashAgg) Children() []Node  { return []Node{h.Child} }
func (m *Mutation) Children() []Node {
	if m.Child == nil {
		return nil
	}
	return []Node{m.Child}
}

// Describe implements Node.
func (s *SeqScan) Describe() string {
	name := s.Table
	if s.Columnar {
		name += " columnar"
	}
	if s.PartsTotal > 0 && s.Partitions != nil {
		return fmt.Sprintf("SeqScan(%s partitions: %d/%d pruned)",
			name, s.PartsTotal-len(s.Partitions), s.PartsTotal)
	}
	return "SeqScan(" + name + ")"
}

// Describe implements Node.
func (s *IndexSeek) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IndexSeek(%s.%s", s.Table, s.Index)
	for _, v := range s.EqVals {
		fmt.Fprintf(&b, " =%s", v)
	}
	if conds := expr.RangeConds("", s.Range); len(conds) > 0 {
		b.WriteString(" range")
		for _, c := range conds {
			cmp := c.(expr.Cmp)
			fmt.Fprintf(&b, " %s%s", cmp.Op, cmp.Val)
		}
	}
	b.WriteString(")")
	return b.String()
}

// Describe implements Node.
func (u *IndexUnion) Describe() string {
	parts := make([]string, len(u.Seeks))
	for i, s := range u.Seeks {
		parts[i] = s.Describe()
	}
	return "IndexUnion[" + strings.Join(parts, ", ") + "]"
}

// Describe implements Node.
func (c *ConstScan) Describe() string { return "ConstantScan(" + c.Table + ")" }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter(" + f.Pred.String() + ")" }

// Describe implements Node.
func (p *Project) Describe() string {
	if len(p.Cols) == 0 {
		return "Project(*)"
	}
	return "Project(" + strings.Join(p.Cols, ", ") + ")"
}

// Describe implements Node.
func (p *Predict) Describe() string {
	return fmt.Sprintf("PredictionJoin(%s AS %s, v%d)", p.Model, p.As, p.Version)
}

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Describe implements Node.
func (h *HashAgg) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HashAgg(%s", h.Phase)
	if len(h.GroupBy) > 0 {
		b.WriteString(" groups=[")
		b.WriteString(strings.Join(h.GroupBy, ", "))
		b.WriteString("]")
	}
	b.WriteString(" aggs=[")
	for i, it := range h.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Name())
	}
	b.WriteString("])")
	return b.String()
}

// Describe implements Node.
func (m *Mutation) Describe() string {
	switch m.Op {
	case "insert":
		return fmt.Sprintf("Insert(%s, %d rows)", m.Table, m.Rows)
	case "update":
		return fmt.Sprintf("Update(%s)", m.Table)
	case "delete":
		return fmt.Sprintf("Delete(%s)", m.Table)
	}
	return fmt.Sprintf("Mutation(%s, %s)", m.Op, m.Table)
}

// Explain renders the plan tree with indentation.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}

// AccessPath classifies how a plan touches its base table.
type AccessPath int

// Access path kinds, ordered roughly by cost at low selectivity.
const (
	AccessSeqScan AccessPath = iota
	AccessIndex
	AccessIndexUnion
	AccessConstant
)

// String names the access path.
func (a AccessPath) String() string {
	switch a {
	case AccessSeqScan:
		return "seqscan"
	case AccessIndex:
		return "index"
	case AccessIndexUnion:
		return "index-union"
	case AccessConstant:
		return "constant"
	}
	return "?"
}

// PathOf walks the plan to its leaf and reports the access path used.
func PathOf(n Node) AccessPath {
	for {
		switch x := n.(type) {
		case *SeqScan:
			return AccessSeqScan
		case *IndexSeek:
			return AccessIndex
		case *IndexUnion:
			return AccessIndexUnion
		case *ConstScan:
			return AccessConstant
		case *Filter:
			n = x.Child
		case *Project:
			n = x.Child
		case *Predict:
			n = x.Child
		case *Limit:
			n = x.Child
		case *HashAgg:
			n = x.Child
		case *Mutation:
			if x.Child == nil {
				return AccessConstant // pure insert: no read side
			}
			n = x.Child
		default:
			return AccessSeqScan
		}
	}
}

// Changed reports whether the plan differs from the baseline full-scan
// plan in the paper's sense: the optimizer chose one or more indexes, or
// a constant scan.
func Changed(n Node) bool {
	return PathOf(n) != AccessSeqScan
}

// Signature is a canonical one-line rendering of the plan shape used to
// compare plans across optimizations.
func Signature(n Node) string {
	var b strings.Builder
	sig(&b, n)
	return b.String()
}

func sig(b *strings.Builder, n Node) {
	b.WriteString(n.Describe())
	kids := n.Children()
	if len(kids) == 0 {
		return
	}
	b.WriteByte('{')
	for i, k := range kids {
		if i > 0 {
			b.WriteByte(';')
		}
		sig(b, k)
	}
	b.WriteByte('}')
}

// Package plan defines the physical plan tree produced by the optimizer
// and consumed by the executor, plus the plan-signature machinery the
// experiments use to detect the paper's "plan changed" condition (the
// optimizer chose one or more indexes, or a constant scan).
package plan

import (
	"strconv"
	"unsafe"

	"minequery/internal/agg"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/recycle"
	"minequery/internal/value"
)

// Node is one physical plan operator.
type Node interface {
	// Children returns the operator's inputs. The slice may alias the
	// operator's fields: callers read it and never write it.
	Children() []Node
	// AppendDescribe appends the operator's one-line description,
	// without its children, to dst.
	AppendDescribe(dst []byte) []byte
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

// Children implements Node. A one-input operator returns its Child
// field as a slice of one, allocating nothing.
func (*SeqScan) Children() []Node    { return nil }
func (*IndexSeek) Children() []Node  { return nil }
func (*IndexUnion) Children() []Node { return nil }
func (*ConstScan) Children() []Node  { return nil }
func (f *Filter) Children() []Node   { return unsafe.Slice(&f.Child, 1) }
func (p *Project) Children() []Node  { return unsafe.Slice(&p.Child, 1) }
func (p *Predict) Children() []Node  { return unsafe.Slice(&p.Child, 1) }
func (l *Limit) Children() []Node    { return unsafe.Slice(&l.Child, 1) }
func (h *HashAgg) Children() []Node  { return unsafe.Slice(&h.Child, 1) }
func (m *Mutation) Children() []Node {
	if m.Child == nil {
		return nil
	}
	return unsafe.Slice(&m.Child, 1)
}

// AppendDescribe implements Node.
func (s *SeqScan) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "SeqScan("...)
	dst = append(dst, s.Table...)
	if s.Columnar {
		dst = append(dst, " columnar"...)
	}
	if s.PartsTotal > 0 && s.Partitions != nil {
		dst = append(dst, " partitions: "...)
		dst = strconv.AppendInt(dst, int64(s.PartsTotal-len(s.Partitions)), 10)
		dst = append(dst, '/')
		dst = strconv.AppendInt(dst, int64(s.PartsTotal), 10)
		dst = append(dst, " pruned"...)
	}
	return append(dst, ')')
}

// AppendDescribe implements Node.
func (s *IndexSeek) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "IndexSeek("...)
	dst = append(dst, s.Table...)
	dst = append(dst, '.')
	dst = append(dst, s.Index...)
	for _, v := range s.EqVals {
		dst = append(dst, " ="...)
		dst = v.Append(dst)
	}
	lo, loInc, hasLo := s.Range.Lo()
	hi, hiInc, hasHi := s.Range.Hi()
	if hasLo || hasHi {
		dst = append(dst, " range"...)
	}
	if hasLo {
		dst = appendBound(dst, expr.OpGt, expr.OpGe, loInc, lo)
	}
	if hasHi {
		dst = appendBound(dst, expr.OpLt, expr.OpLe, hiInc, hi)
	}
	return append(dst, ')')
}

// appendBound appends one range bound as ` opV`: op, or incOp when the
// bound is inclusive.
func appendBound(dst []byte, op, incOp expr.CmpOp, inc bool, v value.Value) []byte {
	if inc {
		op = incOp
	}
	dst = append(dst, ' ')
	dst = append(dst, op.String()...)
	return v.Append(dst)
}

// AppendDescribe implements Node.
func (u *IndexUnion) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "IndexUnion["...)
	for i, s := range u.Seeks {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = s.AppendDescribe(dst)
	}
	return append(dst, ']')
}

// AppendDescribe implements Node.
func (c *ConstScan) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "ConstantScan("...)
	dst = append(dst, c.Table...)
	return append(dst, ')')
}

// AppendDescribe implements Node.
func (f *Filter) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "Filter("...)
	dst = expr.Append(dst, f.Pred)
	return append(dst, ')')
}

// AppendDescribe implements Node.
func (p *Project) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "Project("...)
	if len(p.Cols) == 0 {
		dst = append(dst, '*')
	}
	dst = appendList(dst, p.Cols)
	return append(dst, ')')
}

// appendList appends names joined by ", ".
func appendList(dst []byte, names []string) []byte {
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, n...)
	}
	return dst
}

// AppendDescribe implements Node.
func (p *Predict) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "PredictionJoin("...)
	dst = append(dst, p.Model...)
	dst = append(dst, " AS "...)
	dst = append(dst, p.As...)
	dst = append(dst, ", v"...)
	dst = strconv.AppendInt(dst, p.Version, 10)
	return append(dst, ')')
}

// AppendDescribe implements Node.
func (l *Limit) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "Limit("...)
	dst = strconv.AppendInt(dst, l.N, 10)
	return append(dst, ')')
}

// AppendDescribe implements Node.
func (h *HashAgg) AppendDescribe(dst []byte) []byte {
	dst = append(dst, "HashAgg("...)
	dst = append(dst, h.Phase.String()...)
	if len(h.GroupBy) > 0 {
		dst = append(dst, " groups=["...)
		dst = appendList(dst, h.GroupBy)
		dst = append(dst, ']')
	}
	dst = append(dst, " aggs=["...)
	for i, it := range h.Aggs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = it.AppendName(dst)
	}
	return append(dst, "])"...)
}

// AppendDescribe implements Node.
func (m *Mutation) AppendDescribe(dst []byte) []byte {
	switch m.Op {
	case "insert":
		dst = append(dst, "Insert("...)
		dst = append(dst, m.Table...)
		dst = append(dst, ", "...)
		dst = strconv.AppendInt(dst, int64(m.Rows), 10)
		return append(dst, " rows)"...)
	case "update":
		dst = append(dst, "Update("...)
	case "delete":
		dst = append(dst, "Delete("...)
	default:
		dst = append(dst, "Mutation("...)
		dst = append(dst, m.Op...)
		dst = append(dst, ", "...)
	}
	dst = append(dst, m.Table...)
	return append(dst, ')')
}

// scratch holds the buffer plan text renders into before it is copied
// out as one string.
var scratch recycle.Pool[[]byte]

// render returns the text appendTo writes, allocating only the string.
func render(n Node, appendTo func(dst []byte, n Node) []byte) string {
	b := scratch.Get()
	*b = appendTo((*b)[:0], n)
	s := string(*b)
	scratch.Put(b)
	return s
}

// Describe renders n's one-line description, without its children.
func Describe(n Node) string {
	return render(n, func(dst []byte, n Node) []byte { return n.AppendDescribe(dst) })
}

// Explain renders the plan tree, one operator a line, each child
// indented two spaces under its parent.
func Explain(n Node) string {
	return render(n, func(dst []byte, n Node) []byte { return appendIndented(dst, n, 0) })
}

func appendIndented(dst []byte, n Node, depth int) []byte {
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	dst = n.AppendDescribe(dst)
	dst = append(dst, '\n')
	for _, c := range n.Children() {
		dst = appendIndented(dst, c, depth+1)
	}
	return dst
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
// compare plans across optimizations: each operator's description, its
// children in braces, separated by semicolons.
func Signature(n Node) string { return render(n, appendSig) }

func appendSig(dst []byte, n Node) []byte {
	dst = n.AppendDescribe(dst)
	kids := n.Children()
	if len(kids) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i, k := range kids {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = appendSig(dst, k)
	}
	return append(dst, '}')
}

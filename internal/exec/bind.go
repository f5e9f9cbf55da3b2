// Binding: what an execution of a plan tree would derive from the tree
// and the catalog and no execution changes, resolved once (Bind) and
// kept in a Bound that any number of executions run from.
package exec

import (
	"fmt"

	"minequery/internal/agg"
	"minequery/internal/catalog"
	"minequery/internal/exec/vec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/value"
)

// Bound is a plan tree resolved against a catalog: for every node its
// ordinal — its place in the tree's walk from the root, which indexes an
// execution's Collector — and the schema of the rows it hands up; for
// the leaf its table, decode mask and row capacity (scanCols); for a
// Project its input ordinals; for a Predict the model entry it bound and
// the model's input ordinals; for a HashAgg its resolved spec; for a
// Filter over a columnar scan its predicate compiled by vec. Every check
// that a plan is runnable — tables and models exist, each operator's
// input holds what it reads (notDecoded) — is made here, once.
//
// An execution instantiates from a Bound only what is its own: the
// operators, cursors and RID lists, the sidecar's freshness and the
// partitions' page ranges, the columnar predicate's warmup counters and
// frozen order (vec.Program.New), and the Collector's slots. A Bound is
// immutable and serves concurrent executions. Each execution first
// checks it against the live catalog (live): every Predict's model is
// looked up again, which refuses a plan whose pinned version has moved
// (lookupModel), and where the catalog no longer holds what was bound —
// a model replaced under an unpinned plan, a table re-created — the
// execution binds afresh. So does one whose collector re-checks an
// envelope baseline (SetEnvelopeBaseline), which widens the decode
// masks.
type Bound struct {
	cat *catalog.Catalog
	// nodes are the tree's nodes from the root down: every operator has
	// one child at most, so a node's child is the next, and the last is
	// the one leaf. It is over table, and but for a ConstScan, which
	// reads nothing, builds rows of the shape cols.
	nodes []boundNode
	table *catalog.Table
	cols  scanCols
	// attributed marks a Bound made for one collector's envelope
	// baselines: it serves that collector's execution alone.
	attributed bool
}

// boundNode is one node of a Bound.
type boundNode struct {
	node   plan.Node
	schema *value.Schema // of the rows it hands up
	// ords are a Project's input ordinals, a Predict's model inputs or a
	// columnar leaf's decoded columns.
	ords  []int
	model *catalog.ModelEntry // a Predict's
	spec  *agg.Spec           // a HashAgg's, either phase
	prog  *vec.Program        // a Filter's over a columnar scan, when vec takes its predicate
}

// Bind resolves root against c once, for any number of executions.
func Bind(c *catalog.Catalog, root plan.Node) (*Bound, error) { return bind(c, root, nil) }

// bind is Bind for the executions that report into col: its leaves also
// decode what col's envelope baselines re-check.
func bind(c *catalog.Catalog, root plan.Node, col *Collector) (*Bound, error) {
	return bindUnder(c, root, root, col)
}

// bindUnder binds the tree root with its leaf's columns read from
// maskRoot — root itself, or a plan root is part of — when no Partial in
// root lies above the leaf.
func bindUnder(c *catalog.Catalog, root, maskRoot plan.Node, col *Collector) (*Bound, error) {
	n := 0
	for x := root; x != nil; x = childOf(x) {
		n++
	}
	b := &Bound{cat: c, nodes: make([]boundNode, n), attributed: col.attributes()}
	// A leaf's mask is read from the root, or from the Partial it runs
	// under: a partial aggregate builds its input as a plan of its own.
	for i, x := 0, root; x != nil; i, x = i+1, childOf(x) {
		b.nodes[i].node = x
		if h, ok := x.(*plan.HashAgg); ok {
			if h.Phase == plan.AggPartial {
				maskRoot = x
			} else if part, ok := h.Child.(*plan.HashAgg); !ok || part.Phase != plan.AggPartial {
				return nil, fmt.Errorf("exec: HashAgg(final) requires a HashAgg(partial) child, got %T", h.Child)
			}
		}
	}
	// From the leaf up, so that an operator meets its input's schema, and
	// a plan's faults in the order an execution would.
	for i := n - 1; i >= 0; i-- {
		if err := b.bindNode(i, maskRoot, col); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// childOf is n's child, or nil for a leaf.
func childOf(n plan.Node) plan.Node {
	if kids := n.Children(); len(kids) == 1 {
		return kids[0]
	}
	return nil
}

// bindNode resolves node i, its child (i+1) already bound.
func (b *Bound) bindNode(i int, maskRoot plan.Node, col *Collector) error {
	bn, c := &b.nodes[i], b.cat
	var in *value.Schema
	if i+1 < len(b.nodes) {
		in = b.nodes[i+1].schema
	}
	switch x := bn.node.(type) {
	case *plan.SeqScan, *plan.IndexSeek, *plan.IndexUnion, *plan.ConstScan:
		name := scanTable(x)
		t, ok := c.Table(name)
		if !ok {
			return fmt.Errorf("exec: no table %q", name)
		}
		b.table = t
		if _, ok := x.(*plan.ConstScan); ok {
			bn.schema = t.Schema
			return nil
		}
		b.cols = leafCols(c, t, maskRoot, col)
		bn.schema = b.cols.schema
		if s, ok := x.(*plan.SeqScan); ok && s.Columnar {
			for ci := 0; ci < t.Schema.Len(); ci++ {
				if b.cols.need == nil || b.cols.need[ci] {
					bn.ords = append(bn.ords, ci)
				}
			}
		}
	case *plan.Filter:
		for _, pred := range []expr.Expr{x.Pred, col.envBaseline(x)} {
			if err := predNotDecoded(in, x, pred); err != nil {
				return err
			}
		}
		bn.schema = in
		if scan, ok := x.Child.(*plan.SeqScan); ok && scan.Columnar {
			bn.prog, _ = vec.Compile(x.Pred, b.table.Schema, b.table.Stats())
		}
	case *plan.Project:
		bn.schema = in
		if len(x.Cols) > 0 {
			var err error
			if bn.ords, bn.schema, err = projectOrds(in, x, x.Cols); err != nil {
				return err
			}
		}
	case *plan.Predict:
		me, err := lookupModel(c, x)
		if err != nil {
			return err
		}
		mb, ok := mining.Bind(me.Model, in)
		if !ok {
			return notDecoded(in, x, me.Model.InputColumns()...)
		}
		bn.model, bn.ords = me, mb.Ordinals
		if bn.schema, err = value.NewSchema(append(append([]value.Column(nil), in.Columns...), value.Column{Name: x.As, Kind: me.PredictionKind()})...); err != nil {
			return fmt.Errorf("exec: prediction join: %w", err)
		}
	case *plan.Limit:
		bn.schema = in
	case *plan.HashAgg:
		if x.Phase == plan.AggPartial {
			return bindPartial(bn, x, in)
		}
		bn.spec = b.nodes[i+1].spec
		out, err := bn.spec.OutSchema()
		if err != nil {
			return fmt.Errorf("exec: %w", err)
		}
		bn.schema = out
	default:
		return fmt.Errorf("exec: unknown plan node %T", bn.node)
	}
	return nil
}

// bindPartial resolves a Partial's aggregation spec against its input.
func bindPartial(bn *boundNode, part *plan.HashAgg, in *value.Schema) error {
	if err := notDecoded(in, part, part.GroupBy...); err != nil {
		return err
	}
	for _, it := range part.Aggs {
		if !it.Star {
			if err := notDecoded(in, part, it.Col); err != nil {
				return err
			}
		}
	}
	spec, err := agg.Resolve(in, part.GroupBy, part.Aggs)
	if err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	bn.spec = spec
	return nil
}

// live is the Bound an execution under col runs: b, or b bound afresh
// when the catalog no longer holds what b bound or col re-checks an
// envelope baseline b was not bound for. Every Predict's model is looked
// up in the live catalog on every execution, so a model version that
// moved since the plan pinned it fails the execution here with
// qerr.ErrPlanInvalidated.
func (b *Bound) live(col *Collector) (*Bound, error) {
	stale := col.attributes() && !b.attributed
	for i := range b.nodes {
		bn := &b.nodes[i]
		switch x := bn.node.(type) {
		case *plan.Predict:
			me, err := lookupModel(b.cat, x)
			if err != nil {
				return nil, err
			}
			stale = stale || me != bn.model
		case *plan.SeqScan, *plan.IndexSeek, *plan.IndexUnion, *plan.ConstScan:
			t, _ := b.cat.Table(scanTable(x))
			stale = stale || t != b.table
		}
	}
	if stale {
		return bind(b.cat, b.nodes[0].node, col)
	}
	return b, nil
}

// Schema is the schema of the rows b's root hands up.
func (b *Bound) Schema() *value.Schema { return b.nodes[0].schema }

// ord is n's ordinal in b, or -1 when n is not a node of b's tree (or b
// is nil).
func (b *Bound) ord(n plan.Node) int {
	if b != nil {
		for i := range b.nodes {
			if b.nodes[i].node == n {
				return i
			}
		}
	}
	return -1
}

// scanCols is the shape of the rows a scan leaf builds for the plan
// above it: the columns it decodes (need, decodeMask's; nil for all),
// their schema — the table's narrowed to them, in table order — and the
// capacity of each row (slot: those columns plus predictRoom). The
// operators above resolve every column by name through their child's
// Schema, so a narrowed row needs no ordinal remapping anywhere.
type scanCols struct {
	need   []bool
	schema *value.Schema
	slot   int
}

// leafCols is the scanCols of a leaf over t in the plan root.
func leafCols(c *catalog.Catalog, t *catalog.Table, root plan.Node, col *Collector) scanCols {
	need := decodeMask(c, root, col)
	schema := t.NarrowSchema(need)
	return scanCols{need: need, schema: schema, slot: schema.Len() + predictRoom(root)}
}

// decodeMask reports which columns of its scan a plan reads — what the
// heap scans and index fetches decode (value.DecodeTupleInto's need) and
// the columnar scan reconstructs: root is walked down to the leaf
// collecting the columns of every Filter (and of the baseline predicate
// EXPLAIN ANALYZE re-checks its rejects against), every Predict's model
// inputs, the Project list and the HashAgg spec. Names the table does
// not have are columns a Predict adds above the scan. nil means every
// column: the plan hands whole rows to its caller (no Project or HashAgg
// above the scan), or it does not end in a scan of a table the catalog
// knows. An operator that reads a column the mask missed fails the build
// (notDecoded), never a row.
func decodeMask(c *catalog.Catalog, root plan.Node, col *Collector) []bool {
	all := true
	var buf [32]string // the names, on the stack for any plan reading up to 32
	names := buf[:0]
	for n := root; ; {
		switch x := n.(type) {
		case *plan.Limit:
			n = x.Child
		case *plan.Project:
			if len(x.Cols) > 0 {
				all, names = false, append(names[:0], x.Cols...)
			}
			n = x.Child
		case *plan.HashAgg:
			all, names = false, append(names[:0], x.GroupBy...)
			for _, it := range x.Aggs {
				if !it.Star {
					names = append(names, it.Col)
				}
			}
			n = x.Child
		case *plan.Filter:
			if !all {
				names = append(names, expr.Columns(x.Pred)...)
				if col != nil {
					if base := col.envBaseline(x); base != nil {
						names = append(names, expr.Columns(base)...)
					}
				}
			}
			n = x.Child
		case *plan.Predict:
			if !all {
				me, ok := c.Model(x.Model)
				if !ok {
					return nil
				}
				names = append(names, me.Model.InputColumns()...)
			}
			n = x.Child
		case *plan.SeqScan, *plan.IndexSeek, *plan.IndexUnion:
			t, ok := c.Table(scanTable(x))
			if all || !ok {
				return nil
			}
			return columnMask(t.Schema, names)
		default:
			return nil
		}
	}
}

// scanTable names the table the leaf under n reads, or "" when n's
// single-child chain ends in no scan.
func scanTable(n plan.Node) string {
	for {
		switch x := n.(type) {
		case *plan.SeqScan:
			return x.Table
		case *plan.IndexSeek:
			return x.Table
		case *plan.IndexUnion:
			return x.Table
		case *plan.ConstScan:
			return x.Table
		}
		kids := n.Children()
		if len(kids) != 1 {
			return ""
		}
		n = kids[0]
	}
}

// notDecoded is the build error of the operator n when it reads col and
// its input, in, does not hold it: the scan under n did not decode it.
// A row would otherwise read the column as absent — a filter dropping
// it, silently.
func notDecoded(in *value.Schema, n plan.Node, cols ...string) error {
	for _, col := range cols {
		if in.Ordinal(col) < 0 {
			return fmt.Errorf("exec: column %q not decoded by scan of %s", col, scanTable(n))
		}
	}
	return nil
}

// predNotDecoded is notDecoded for the columns of a predicate.
func predNotDecoded(in *value.Schema, n plan.Node, pred expr.Expr) error {
	if col := expr.Unresolved(pred, in); col != "" {
		return notDecoded(in, n, col)
	}
	return nil
}

// predictRoom is how many values the operators above a leaf append to
// each of its rows in place: one per Predict between root and the leaf,
// not counting those above a Project or HashAgg, which get that
// operator's rows — cut to their own length, so moved by append —
// instead. Every leaf gives its tuples that much spare capacity
// (batchPredict).
func predictRoom(root plan.Node) int {
	room := 0
	for n := root; ; {
		switch x := n.(type) {
		case *plan.Predict:
			room++
		case *plan.Project:
			if len(x.Cols) > 0 {
				room = 0
			}
		case *plan.HashAgg:
			room = 0
		}
		kids := n.Children()
		if len(kids) != 1 {
			return room
		}
		n = kids[0]
	}
}

// columnMask marks the ordinals of the named columns that s has.
func columnMask(s *value.Schema, names []string) []bool {
	need := make([]bool, s.Len())
	for _, name := range names {
		if o := s.Ordinal(name); o >= 0 {
			need[o] = true
		}
	}
	return need
}

// projectOrds resolves the projection n's columns against the input
// schema.
func projectOrds(in *value.Schema, n plan.Node, cols []string) ([]int, *value.Schema, error) {
	ords := make([]int, len(cols))
	outCols := make([]value.Column, len(cols))
	for i, c := range cols {
		o := in.Ordinal(c)
		if o < 0 {
			return nil, nil, notDecoded(in, n, c)
		}
		ords[i] = o
		outCols[i] = in.Col(o)
	}
	schema, err := value.NewSchema(outCols...)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: project: %w", err)
	}
	return ords, schema, nil
}

// lookupModel resolves a prediction join's model and enforces the plan's
// version pin: a plan optimized against one model version must not run
// against another (its envelopes were derived from the old model).
func lookupModel(c *catalog.Catalog, pr *plan.Predict) (*catalog.ModelEntry, error) {
	me, ok := c.Model(pr.Model)
	if !ok {
		return nil, fmt.Errorf("exec: no model %q", pr.Model)
	}
	if pr.Version != 0 && me.Version != pr.Version {
		return nil, fmt.Errorf("exec: %w: model %q is v%d, plan was optimized at v%d",
			qerr.ErrPlanInvalidated, pr.Model, me.Version, pr.Version)
	}
	return me, nil
}

package standing

// Compilation of subscriptions into the shared structure. Each
// subscription's WHERE tree is compiled into a node tree whose mining
// atoms carry two handles: a slot into the table's deduplicated model
// list (predictions memoized per row) and an index into the table's
// deduplicated envelope-region list (regions evaluated at most once per
// row, shared across every subscription whose predicate induces the
// same region). Which atoms have a region, what it is and what it is
// keyed by is the query rewriter's Section 4.1 rule table
// (core.PredCols.Envelope), asked, not restated — envelope false
// implies the mining atom is false in ANY polarity, because the atom
// itself is still evaluated exactly; the region is purely a sound
// short-circuit.

import (
	"fmt"
	"strings"
	"sync/atomic"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/qerr"
	"minequery/internal/value"
)

// modelSlot is one deduplicated model binding for a compiled table.
type modelSlot struct {
	name    string // lower model name
	binding mining.Binding
}

// compiledSub is one subscription compiled against the shared table
// structure.
type compiledSub struct {
	src  *rawSub
	root node
	// guard is the pure-data sound weakening of the predicate (mining
	// atoms replaced by their envelope regions, NOT subtrees dropped) —
	// the expression the interval index prunes with.
	guard expr.Expr
	cols  []string
	proj  []projItem
}

// projItem is one projected output column: a base-table ordinal, or a
// model slot whose prediction is emitted.
type projItem struct {
	ord   int // base column ordinal, -1 for predictions
	model int // model slot, -1 for base columns
}

// compiledTable is the shared structure for one table: the compiled
// subscriptions, the deduplicated model and region lists they index
// into, and the interval index over their guards.
type compiledTable struct {
	name    string // catalog-case table name
	schema  *value.Schema
	subs    []*compiledSub
	models  []*modelSlot
	regions []expr.Expr
	index   *intervalIndex
}

// project materializes the subscription's select list for the current
// row.
func (cs *compiledSub) project(rc *rowCtx) value.Tuple {
	out := make(value.Tuple, len(cs.proj))
	for i, p := range cs.proj {
		if p.model >= 0 {
			out[i] = rc.predict(p.model)
		} else {
			out[i] = rc.row[p.ord]
		}
	}
	return out
}

// rowCtx carries one row's evaluation state: the memoized region
// verdicts and model predictions shared by every candidate
// subscription.
type rowCtx struct {
	ct  *compiledTable
	row value.Tuple
	// regionMemo: 0 unset, 1 false, 2 true.
	regionMemo []int8
	predMemo   []value.Value
	predDone   []bool
	buf        value.Tuple
	modelCalls *atomic.Int64 // counter sink (may be nil)
}

func newRowCtx(ct *compiledTable, modelCalls *atomic.Int64) *rowCtx {
	maxIn := 0
	for _, m := range ct.models {
		if n := len(m.binding.Ordinals); n > maxIn {
			maxIn = n
		}
	}
	return &rowCtx{
		ct:         ct,
		regionMemo: make([]int8, len(ct.regions)),
		predMemo:   make([]value.Value, len(ct.models)),
		predDone:   make([]bool, len(ct.models)),
		buf:        make(value.Tuple, maxIn),
		modelCalls: modelCalls,
	}
}

func (rc *rowCtx) reset(row value.Tuple) {
	rc.row = row
	for i := range rc.regionMemo {
		rc.regionMemo[i] = 0
	}
	for i := range rc.predDone {
		rc.predDone[i] = false
	}
}

// region evaluates region r against the row, memoized.
func (rc *rowCtx) region(r int) bool {
	switch rc.regionMemo[r] {
	case 1:
		return false
	case 2:
		return true
	}
	ok := rc.ct.regions[r].Eval(rc.ct.schema, rc.row)
	if ok {
		rc.regionMemo[r] = 2
	} else {
		rc.regionMemo[r] = 1
	}
	return ok
}

// predict returns model slot m's prediction for the row, memoized.
func (rc *rowCtx) predict(m int) value.Value {
	if rc.predDone[m] {
		return rc.predMemo[m]
	}
	v := rc.ct.models[m].binding.PredictInto(rc.row, rc.buf)
	rc.predMemo[m] = v
	rc.predDone[m] = true
	if rc.modelCalls != nil {
		rc.modelCalls.Add(1)
	}
	return v
}

// node is one compiled predicate operator.
type node interface {
	eval(rc *rowCtx) bool
}

type constNode struct{ b bool }

func (n constNode) eval(*rowCtx) bool { return n.b }

// leaf evaluates a pure-data atom directly against the base row.
type leaf struct{ e expr.Expr }

func (n leaf) eval(rc *rowCtx) bool { return n.e.Eval(rc.ct.schema, rc.row) }

type andNode struct{ kids []node }

func (n andNode) eval(rc *rowCtx) bool {
	for _, k := range n.kids {
		if !k.eval(rc) {
			return false
		}
	}
	return true
}

type orNode struct{ kids []node }

func (n orNode) eval(rc *rowCtx) bool {
	for _, k := range n.kids {
		if k.eval(rc) {
			return true
		}
	}
	return false
}

type notNode struct{ kid node }

func (n notNode) eval(rc *rowCtx) bool { return !n.kid.eval(rc) }

// predCmp is `predict(model) op val`. region, when >= 0, is a sound
// gate: region false implies the comparison is false, skipping the
// model call entirely.
type predCmp struct {
	model  int
	op     expr.CmpOp
	val    value.Value
	region int
}

func (n predCmp) eval(rc *rowCtx) bool {
	if n.region >= 0 && !rc.region(n.region) {
		return false
	}
	v := rc.predict(n.model)
	if v.IsNull() || n.val.IsNull() {
		return false
	}
	return n.op.Holds(value.Compare(v, n.val))
}

// predIn is `predict(model) IN (vals)` with its envelope-union gate.
type predIn struct {
	model  int
	vals   []value.Value
	region int
}

func (n predIn) eval(rc *rowCtx) bool {
	if n.region >= 0 && !rc.region(n.region) {
		return false
	}
	v := rc.predict(n.model)
	if v.IsNull() {
		return false
	}
	for _, w := range n.vals {
		if value.Equal(v, w) {
			return true
		}
	}
	return false
}

// predDataCmp is `predict(model) op data-column` (the paper's
// model-data join after the prediction join).
type predDataCmp struct {
	model   int
	op      expr.CmpOp
	dataOrd int
	// flip is set when the data column was the left operand.
	flip   bool
	region int
}

func (n predDataCmp) eval(rc *rowCtx) bool {
	if n.region >= 0 && !rc.region(n.region) {
		return false
	}
	p := rc.predict(n.model)
	d := rc.row[n.dataOrd]
	if p.IsNull() || d.IsNull() {
		return false
	}
	c := value.Compare(p, d)
	if n.flip {
		c = -c
	}
	return n.op.Holds(c)
}

// predPredCmp is `predict(modelA) op predict(modelB)` (the paper's
// model-model join).
type predPredCmp struct {
	modelA, modelB int
	op             expr.CmpOp
	region         int
}

func (n predPredCmp) eval(rc *rowCtx) bool {
	if n.region >= 0 && !rc.region(n.region) {
		return false
	}
	a := rc.predict(n.modelA)
	b := rc.predict(n.modelB)
	if a.IsNull() || b.IsNull() {
		return false
	}
	return n.op.Holds(value.Compare(a, b))
}

// tableBuilder accumulates the shared structure while subscriptions
// compile against one table.
type tableBuilder struct {
	*compiledTable
	cat       *catalog.Catalog
	cache     core.EnvelopeCache
	modelIdx  map[string]int
	regionIdx map[string]int
}

func newTableBuilder(cat *catalog.Catalog, table string, cache core.EnvelopeCache) (*tableBuilder, error) {
	t, ok := cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("standing: %w %q", qerr.ErrUnknownTable, table)
	}
	return &tableBuilder{
		compiledTable: &compiledTable{name: t.Name, schema: t.Schema},
		cat:           cat,
		cache:         cache,
		modelIdx:      map[string]int{},
		regionIdx:     map[string]int{},
	}, nil
}

// modelSlot interns one model binding (deduplicated by lower name).
func (b *tableBuilder) modelSlot(me *catalog.ModelEntry) (int, error) {
	key := strings.ToLower(me.Model.Name())
	if i, ok := b.modelIdx[key]; ok {
		return i, nil
	}
	bind, ok := mining.Bind(me.Model, b.schema)
	if !ok {
		return 0, fmt.Errorf("standing: %w: model %q inputs %v not all present in table %q",
			qerr.ErrUnsupportedQuery, me.Model.Name(), me.Model.InputColumns(), b.name)
	}
	b.models = append(b.models, &modelSlot{name: key, binding: bind})
	i := len(b.models) - 1
	b.modelIdx[key] = i
	return i, nil
}

// region interns the envelope region gating one mining atom, under the
// rule table's fingerprint-derived key, and returns its index with its
// predicate (the atom's share of the guard). Atoms the table has no
// envelope for, and TrueExpr regions (no information), get -1: no gate.
// The key is namespaced apart from the query rewriter's entries so the
// two paths can share one cache without mixing notes, while staying
// equally immune to retrains (the fingerprint is in the key).
func (b *tableBuilder) region(atom expr.Expr, pc core.PredCols) (int, expr.Expr) {
	env, ok := pc.Envelope(atom)
	if !ok {
		return -1, expr.TrueExpr{}
	}
	key := "standing|" + env.Key
	if i, ok := b.regionIdx[key]; ok {
		return i, b.regions[i]
	}
	var pred expr.Expr
	if b.cache != nil {
		if ce, ok := b.cache.Get(key); ok {
			pred = ce.Pred
		}
	}
	if pred == nil {
		pred = env.Build(nil)
		if b.cache != nil {
			b.cache.Put(key, core.CachedEnvelope{Pred: pred})
		}
	}
	if _, isTrue := pred.(expr.TrueExpr); isTrue {
		return -1, pred
	}
	b.regions = append(b.regions, pred)
	i := len(b.regions) - 1
	b.regionIdx[key] = i
	return i, pred
}

// compileSub compiles one subscription against the shared structure.
// It does NOT append to b.subs — the caller decides (Subscribe compiles
// for validation only; recompileLocked keeps the result).
func (b *tableBuilder) compileSub(sub *rawSub) (*compiledSub, error) {
	q := sub.q
	pc, err := core.ResolvePredCols(q, b.cat)
	if err != nil {
		return nil, err
	}
	// Validate every referenced column before compiling, so a typo is an
	// error instead of a never-matching subscription.
	check := func(col string) error {
		if b.schema.Ordinal(col) >= 0 {
			return nil
		}
		if _, ok := pc.Model(col); ok {
			return nil
		}
		return fmt.Errorf("standing: %w: unknown column %q (table %q)", qerr.ErrUnsupportedQuery, col, b.name)
	}
	for _, c := range q.Select {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	for _, c := range expr.Columns(q.Where) {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	root, guard, err := b.compile(q.Where, pc)
	if err != nil {
		return nil, err
	}
	cs := &compiledSub{src: sub, root: root, guard: guard}
	// Projection: the explicit select list, or every base column for *.
	if len(q.Select) == 0 {
		cs.cols = make([]string, b.schema.Len())
		cs.proj = make([]projItem, b.schema.Len())
		for i := 0; i < b.schema.Len(); i++ {
			cs.cols[i] = b.schema.Col(i).Name
			cs.proj[i] = projItem{ord: i, model: -1}
		}
		return cs, nil
	}
	for _, c := range q.Select {
		if me, ok := pc.Model(c); ok {
			slot, err := b.modelSlot(me)
			if err != nil {
				return nil, err
			}
			cs.cols = append(cs.cols, strings.ToLower(c))
			cs.proj = append(cs.proj, projItem{ord: -1, model: slot})
			continue
		}
		ord := b.schema.Ordinal(c)
		cs.cols = append(cs.cols, b.schema.Col(ord).Name)
		cs.proj = append(cs.proj, projItem{ord: ord, model: -1})
	}
	return cs, nil
}

// compileAll compiles the operands of an AND or OR.
func (b *tableBuilder) compileAll(es []expr.Expr, pc core.PredCols) ([]node, []expr.Expr, error) {
	kids := make([]node, len(es))
	guards := make([]expr.Expr, len(es))
	for i, e := range es {
		n, g, err := b.compile(e, pc)
		if err != nil {
			return nil, nil, err
		}
		kids[i], guards[i] = n, g
	}
	return kids, guards, nil
}

// compile turns one predicate subtree into (node, guard): the exact
// evaluator and its pure-data sound weakening. The guard drops NOT
// subtrees entirely (weakening a conjunction is sound; the pruning walk
// would ignore them anyway) and replaces mining atoms by their envelope
// regions.
func (b *tableBuilder) compile(e expr.Expr, pc core.PredCols) (node, expr.Expr, error) {
	switch x := e.(type) {
	case expr.TrueExpr:
		return constNode{true}, expr.TrueExpr{}, nil
	case expr.FalseExpr:
		return constNode{false}, expr.FalseExpr{}, nil
	case expr.And:
		kids, guards, err := b.compileAll(x.Kids, pc)
		return andNode{kids}, expr.NewAnd(guards...), err
	case expr.Or:
		kids, guards, err := b.compileAll(x.Kids, pc)
		return orNode{kids}, expr.NewOr(guards...), err
	case expr.Not:
		kid, _, err := b.compile(x.Kid, pc)
		if err != nil {
			return nil, nil, err
		}
		return notNode{kid}, expr.TrueExpr{}, nil
	case expr.Cmp:
		me, ok := pc.Model(x.Col)
		if !ok {
			return leaf{x}, x, nil
		}
		slot, err := b.modelSlot(me)
		if err != nil {
			return nil, nil, err
		}
		region, guard := b.region(x, pc)
		return predCmp{model: slot, op: x.Op, val: x.Val, region: region}, guard, nil
	case expr.In:
		me, ok := pc.Model(x.Col)
		if !ok {
			return leaf{x}, x, nil
		}
		slot, err := b.modelSlot(me)
		if err != nil {
			return nil, nil, err
		}
		region, guard := b.region(x, pc)
		return predIn{model: slot, vals: x.Vals, region: region}, guard, nil
	case expr.ColCmp:
		meA, okA := pc.Model(x.ColA)
		meB, okB := pc.Model(x.ColB)
		switch {
		case okA && okB:
			slotA, err := b.modelSlot(meA)
			if err != nil {
				return nil, nil, err
			}
			slotB, err := b.modelSlot(meB)
			if err != nil {
				return nil, nil, err
			}
			region, guard := b.region(x, pc)
			return predPredCmp{modelA: slotA, modelB: slotB, op: x.Op, region: region}, guard, nil
		case okA != okB:
			me, dataCol, flip := meA, x.ColB, false
			if okB {
				me, dataCol, flip = meB, x.ColA, true
			}
			slot, err := b.modelSlot(me)
			if err != nil {
				return nil, nil, err
			}
			region, guard := b.region(x, pc)
			return predDataCmp{model: slot, op: x.Op, dataOrd: b.schema.Ordinal(dataCol), flip: flip, region: region}, guard, nil
		default:
			return leaf{x}, x, nil
		}
	default:
		// Unknown atom kinds evaluate as-is and contribute nothing to the
		// guard (sound: TrueExpr never prunes).
		return leaf{e}, expr.TrueExpr{}, nil
	}
}

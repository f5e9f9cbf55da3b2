package standing

// Compilation of subscriptions into the shared structure. A
// subscription compiles to three parts:
//
//   - its guard, core.PredCols.Weaken of its WHERE, the weakening the
//     query rewriter's data predicate comes from: data subtrees stay,
//     NOTs included, a mining atom becomes the envelope region the
//     Section 4.1 rule table gives it, interned across the table's
//     subscriptions under the rewriter's key, and a negated mining atom
//     becomes TRUE. The guard is the interval index's only input, and it
//     gates the model calls: guard false implies WHERE false, so a row
//     the guard rejects costs no prediction;
//   - its own WHERE, evaluated by expr.Eval exactly as the query path's
//     post-prediction filter evaluates it;
//   - its post-prediction schema, core.PostPredictSchema: the table's
//     columns, then one predicted column per PREDICTION JOIN. A row is
//     extended to it with predictions memoized per (row, model).
//
// Its select list is interned across the table's subscriptions as a
// projection slot, and what every notification of it shares (id, table,
// column names) is built once, as its Source.
//
// A table's set compiles in two parts (see part). The model-free part
// is compiled when the subscriptions change and kept across catalog
// invalidations; the model part is compiled on every recompile, and
// its projection slots continue the model-free part's, so a select list
// is one slot, and a row one Image under it, whichever part matches.

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// compiledSub is one subscription compiled against the shared table
// structure.
type compiledSub struct {
	src *rawSub
	// bit is the subscription's position in the table's registration
	// order: its bit in a row's candidate set.
	bit   int
	guard expr.Expr
	where expr.Expr
	// schema is the post-prediction schema: the table's schema itself for
	// a subscription without prediction joins.
	schema *value.Schema
	// joins are the model slots of the prediction joins, in join order.
	joins []int
	// spec is the select list: per column, its table ordinal, or the
	// table's width plus the model slot of a predicted column. proj is
	// its projection slot.
	spec   []int
	proj   int
	source *Source
}

// part is one of a table's two compiled parts: the subscriptions
// without prediction joins, or those with, and the interval index over
// their guards. Each subscription keeps its bit, its position in the
// table's registration order, so the two parts' candidate bitsets OR
// into one. The model-free part is built when the table's subscriptions
// change and is then shared, never mutated, by every compiledTable
// until they change again.
type part struct {
	subs  []*compiledSub // in registration order
	index *intervalIndex
	// rank[w] counts the part's subscriptions on bits below word w, so a
	// bit finds its subscription without a table-wide array.
	rank []int32
	// projs and projIdx are the projection slots interned while the part
	// compiled: the model part's start with the model-free part's.
	projs   [][]int
	projIdx map[uint64]int
}

// has reports whether bit i is one of the part's subscriptions.
func (p *part) has(i int) bool { return p.index.full[i/64]&(1<<(i%64)) != 0 }

// sub returns the part's subscription on bit i, which it has.
func (p *part) sub(i int) *compiledSub {
	w := i / 64
	return p.subs[int(p.rank[w])+bits.OnesCount64(p.index.full[w]&(1<<(i%64)-1))]
}

// compiledTable is the shared structure for one table: its two parts,
// and the deduplicated model bindings, select lists and interned
// envelope regions the model part shares with the model-free one.
type compiledTable struct {
	name   string // catalog-case table name
	schema *value.Schema
	free   *part // the model-free part
	joined *part // the model part
	// words is the length of a candidate bitset: one bit per registered
	// subscription.
	words   int
	models  []mining.Binding
	regions map[string]expr.Expr
	// projs are the projection slots: per select list, each column's
	// table ordinal, or the table's width plus the model slot of a
	// predicted column.
	projs [][]int
	// width is the widest post-prediction schema among the subscriptions.
	width int
}

// sub returns the subscription on candidate bit i.
func (ct *compiledTable) sub(i int) *compiledSub {
	if ct.free.has(i) {
		return ct.free.sub(i)
	}
	return ct.joined.sub(i)
}

// candidates fills out (len == words) with the bitset of subscriptions
// that may match row: the OR of both parts' candidates. scratch (len ==
// 2×words) is overwritten.
func (ct *compiledTable) candidates(row value.Tuple, out, scratch []uint64) {
	ct.free.index.candidates(row, out, scratch[:ct.words])
	if len(ct.joined.subs) == 0 {
		return
	}
	other := scratch[ct.words:]
	ct.joined.index.candidates(row, other, scratch[:ct.words])
	for w := range out {
		out[w] |= other[w]
	}
}

// match reports whether the subscription's WHERE holds on the current
// row, extended in rc.ext with the subscription's predictions. A
// subscription with prediction joins calls its models only once its
// guard holds on the row.
func (cs *compiledSub) match(rc *rowCtx) bool {
	if len(cs.joins) > 0 && !cs.guard.Eval(rc.ct.schema, rc.row) {
		return false
	}
	n := rc.ct.schema.Len()
	for i, m := range cs.joins {
		rc.ext[n+i] = rc.predict(m)
	}
	return cs.where.Eval(cs.schema, rc.ext[:cs.schema.Len()])
}

// rowCtx carries one row's evaluation state: the extended-row buffer,
// and the model predictions and images memoized across every candidate
// subscription.
type rowCtx struct {
	ct    *compiledTable
	epoch int64 // the batch's, carried by every Image
	row   value.Tuple
	// ext is the row followed by one candidate's predictions, sized once
	// to the table's widest post-prediction schema.
	ext        value.Tuple
	predMemo   []value.Value
	predDone   []bool
	projMemo   []*Image
	buf        value.Tuple
	modelCalls *atomic.Int64 // counter sink (may be nil)
}

func newRowCtx(ct *compiledTable, epoch int64, modelCalls *atomic.Int64) *rowCtx {
	maxIn := 0
	for _, b := range ct.models {
		maxIn = max(maxIn, len(b.Ordinals))
	}
	return &rowCtx{
		ct:         ct,
		epoch:      epoch,
		ext:        make(value.Tuple, ct.width),
		predMemo:   make([]value.Value, len(ct.models)),
		predDone:   make([]bool, len(ct.models)),
		projMemo:   make([]*Image, len(ct.projs)),
		buf:        make(value.Tuple, maxIn),
		modelCalls: modelCalls,
	}
}

func (rc *rowCtx) reset(row value.Tuple) {
	rc.row = row
	copy(rc.ext, row)
	clear(rc.predDone)
	clear(rc.projMemo)
}

// predict returns model slot m's prediction for the row, memoized.
func (rc *rowCtx) predict(m int) value.Value {
	if rc.predDone[m] {
		return rc.predMemo[m]
	}
	v := rc.ct.models[m].PredictInto(rc.row, rc.buf)
	rc.predMemo[m] = v
	rc.predDone[m] = true
	if rc.modelCalls != nil {
		rc.modelCalls.Add(1)
	}
	return v
}

// project returns the row's Image through projection slot p, built on
// its first match and shared, read-only, by every later one. A predicted
// column reads the memo, which the match that asks has filled.
func (rc *rowCtx) project(p int) *Image {
	if img := rc.projMemo[p]; img != nil {
		return img
	}
	spec, n := rc.ct.projs[p], rc.ct.schema.Len()
	out := make(value.Tuple, len(spec))
	for i, o := range spec {
		if o < n {
			out[i] = rc.row[o]
		} else {
			out[i] = rc.predict(o - n)
		}
	}
	img := &Image{Row: out, Epoch: rc.epoch}
	rc.projMemo[p] = img
	return img
}

// tableBuilder accumulates one part of the shared structure while
// subscriptions compile against one table.
type tableBuilder struct {
	*compiledTable
	cat      *catalog.Catalog
	cache    core.EnvelopeCache
	modelIdx map[string]int
	// projIdx finds a projection slot by its spec's hash; free, when the
	// model part compiles, is the model-free part whose slots come first.
	projIdx map[uint64]int
	free    *part
	// forms interns a subscription's prediction columns and
	// post-prediction schema by its join signature, sig's scratch: both
	// read only the joins and the catalog.
	forms map[string]joinForm
	sig   []byte
}

// joinForm is what a join list compiles to: the prediction columns and
// the post-prediction schema, or the error resolving them.
type joinForm struct {
	pc     core.PredCols
	schema *value.Schema
	err    error
}

// newTableBuilder starts a part of the named table's structure. free is
// nil for the model-free part, and that part for the model part.
func newTableBuilder(cat *catalog.Catalog, table string, cache core.EnvelopeCache, free *part) (*tableBuilder, error) {
	t, ok := cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("standing: %w %q", qerr.ErrUnknownTable, table)
	}
	b := &tableBuilder{
		compiledTable: &compiledTable{name: t.Name, schema: t.Schema, regions: map[string]expr.Expr{}, width: t.Schema.Len()},
		cat:           cat,
		cache:         cache,
		modelIdx:      map[string]int{},
		projIdx:       map[uint64]int{},
		free:          free,
		forms:         map[string]joinForm{},
	}
	if free != nil {
		b.projs = slices.Clip(free.projs)
	}
	return b, nil
}

// compilePart compiles, each on its position in subs (the table's
// registration order), the subscriptions with prediction joins when
// joined is true and those without otherwise, and indexes them. A
// subscription that no longer compiles (a dropped model, say) carries
// the error and is left out; the rest keep working.
func (b *tableBuilder) compilePart(subs []*rawSub, joined bool) *part {
	b.words = (len(subs) + 63) / 64
	p := &part{rank: make([]int32, b.words)}
	for i, sub := range subs {
		if (len(sub.q.Joins) > 0) != joined {
			continue
		}
		cs, err := b.compileSub(sub)
		if err != nil {
			sub.err = err.Error()
			continue
		}
		sub.err, cs.bit = "", i
		p.subs = append(p.subs, cs)
		if w := i/64 + 1; w < b.words {
			p.rank[w]++
		}
		b.width = max(b.width, cs.schema.Len())
	}
	for w := 1; w < b.words; w++ {
		p.rank[w] += p.rank[w-1]
	}
	p.index = buildIndex(b.schema, p.subs, b.words)
	p.projs, p.projIdx = b.projs, b.projIdx
	return p
}

// modelSlot interns the binding of the named model to the table
// (deduplicated by lower name).
func (b *tableBuilder) modelSlot(name string) (int, error) {
	key := strings.ToLower(name)
	if i, ok := b.modelIdx[key]; ok {
		return i, nil
	}
	me, ok := b.cat.Model(name)
	if !ok {
		return 0, fmt.Errorf("standing: %w %q", qerr.ErrUnknownModel, name)
	}
	bind, ok := mining.Bind(me.Model, b.schema)
	if !ok {
		return 0, fmt.Errorf("standing: %w: model %q inputs %v not all present in table %q",
			qerr.ErrUnsupportedQuery, me.Model.Name(), me.Model.InputColumns(), b.name)
	}
	b.models = append(b.models, bind)
	b.modelIdx[key] = len(b.models) - 1
	return len(b.models) - 1, nil
}

// projSlot interns a select list's spec. Two specs that collide on the
// hash keep separate slots: sharing a slot saves work, never decides a
// value.
func (b *tableBuilder) projSlot(spec []int) int {
	h := uint64(len(spec))
	for _, o := range spec {
		h = h*1_000_003 ^ uint64(o)
	}
	if b.free != nil {
		if p, ok := b.free.projIdx[h]; ok && slices.Equal(b.projs[p], spec) {
			return p
		}
	}
	p, ok := b.projIdx[h]
	if ok && slices.Equal(b.projs[p], spec) {
		return p
	}
	if !ok {
		b.projIdx[h] = len(b.projs)
	}
	b.projs = append(b.projs, spec)
	return len(b.projs) - 1
}

// region is the envelope region standing in for a mining atom in a
// guard, interned across the table's subscriptions under the rule
// table's key and taken from the envelope cache through the rewriter's
// own door, so a guard and a query over one class set share one entry.
func (b *tableBuilder) region(env core.AtomEnvelope) expr.Expr {
	if pred, ok := b.regions[env.Key]; ok {
		return pred
	}
	pred := env.Cached(b.cache).Pred
	b.regions[env.Key] = pred
	return pred
}

// joinForm returns the prediction columns and post-prediction schema of
// q's join list, resolved once per signature (alias and model pairs).
func (b *tableBuilder) joinForm(q *sqlparse.Query) joinForm {
	b.sig = b.sig[:0]
	for _, j := range q.Joins {
		b.sig = append(append(append(append(b.sig, j.Alias...), 0), j.Model...), 0)
	}
	if f, ok := b.forms[string(b.sig)]; ok {
		return f
	}
	f := joinForm{schema: b.schema}
	f.pc, f.err = core.ResolvePredCols(q, b.cat)
	if f.err == nil && len(q.Joins) > 0 {
		f.schema, f.err = core.PostPredictSchema(q, b.cat, b.schema)
	}
	b.forms[string(b.sig)] = f
	return f
}

// compileSub compiles one subscription against the shared structure.
// It does NOT append to a part — the caller decides (Subscribe compiles
// for validation only; compilePart keeps the result).
func (b *tableBuilder) compileSub(sub *rawSub) (*compiledSub, error) {
	q := sub.q
	form := b.joinForm(q)
	if form.err != nil {
		return nil, form.err
	}
	cs := &compiledSub{src: sub, where: q.Where, schema: form.schema}
	// Every join is bound, whether or not anything reads its prediction,
	// as the query path's Predict operators bind every join.
	for _, j := range q.Joins {
		slot, err := b.modelSlot(j.Model)
		if err != nil {
			return nil, err
		}
		cs.joins = append(cs.joins, slot)
	}
	// A named column must be in the post-prediction schema, so a typo is
	// an error instead of a never-matching subscription.
	unknown := func(col string) error {
		return fmt.Errorf("standing: %w: unknown column %q (table %q)", qerr.ErrUnsupportedQuery, col, b.name)
	}
	// Projection: the explicit select list, or every base column for *.
	// A predicted column is filed under its model slot, not its join
	// position, so one select list shares a slot whatever the join order.
	n := b.schema.Len()
	var spec []int
	var cols []string
	if len(q.Select) == 0 {
		spec, cols = make([]int, n), make([]string, n)
		for i := range spec {
			spec[i], cols[i] = i, b.schema.Col(i).Name
		}
	} else {
		spec, cols = make([]int, len(q.Select)), make([]string, len(q.Select))
		for i, c := range q.Select {
			ord := cs.schema.Ordinal(c)
			if ord < 0 {
				return nil, unknown(c)
			}
			spec[i], cols[i] = ord, cs.schema.Col(ord).Name
			if ord >= n {
				spec[i] = n + cs.joins[ord-n]
			}
		}
	}
	if c := expr.Unresolved(q.Where, cs.schema); c != "" {
		return nil, unknown(c)
	}
	cs.guard = form.pc.Weaken(q.Where, b.schema, b.region)
	cs.spec, cs.proj = spec, b.projSlot(spec)
	cs.source = &Source{SubID: sub.id, Table: b.name, Columns: cols}
	return cs, nil
}

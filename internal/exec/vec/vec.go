// Package vec evaluates predicate expressions over column groups with
// selection vectors: each operator consumes an ascending list of
// candidate row indices and returns the sublist that satisfies it,
// using tight loops over each column's dictionary codes instead of
// per-tuple decode and interface dispatch (the MonetDB/X100 execution
// style) — and no loop where a group's dictionary decides the term.
//
// On top of the vectorized evaluators sits BestD-style adaptive term
// ordering: every AND/OR node measures its children's observed pass
// rates online during a warmup phase (all terms evaluated, no
// short-circuiting, counters fed), then Freeze picks an evaluation
// order — conjuncts by descending rejection-per-cost, disjuncts by
// descending acceptance-per-cost — and evaluation switches to
// short-circuiting under the frozen order. The warmup is driven
// single-threaded by the scan operator before it fans out workers, so
// the chosen order and all per-term counters are deterministic at any
// degree of parallelism.
//
// Semantics contract: for every expression the compiler accepts,
// filtering a selection is EXACTLY row-wise expr.Eval — including SQL
// NULL-comparison behaviour (NULL operands make comparisons false),
// cross-kind comparisons, and NOT, which both compile as its negation
// normal form, so a NULL fails a comparison and its negation alike. The
// property tests in this package enforce the contract against the
// row-at-a-time oracle.
package vec

import (
	"math"
	"sort"
	"sync/atomic"

	"minequery/internal/expr"
	"minequery/internal/recycle"
	"minequery/internal/stats"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// node is one compiled predicate operator. filter returns the subset of
// sel (ascending row indices into g) satisfying the node; the returned
// slice is always a scratch-owned buffer distinct from sel, and sel is
// never modified.
type node interface {
	filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32
	freeze()
	cost() float64
	// instance returns the node for one execution: the node itself when
	// it holds no adaptive state, else a copy with unmeasured counters
	// and no frozen order that shares the compiled kids it can.
	instance() node
}

// Scratch is one evaluator's working memory: the selection buffers its
// nodes fill and the small slices the combiners keep per call. Each
// concurrent consumer of a Pred (the scan's consumer, each scan or
// aggregate worker) holds its own; the Pred itself is shared.
//
// A Scratch outlives the scan that used it. NewScratch hands out one a
// finished scan gave back, warm with that scan's buffers, before making
// an empty one, and whoever took it calls Release once nothing — no
// goroutine, no selection still being read — uses it any more. A scan
// that never releases (an abandoned iterator) only forgoes the reuse.
//
// Every buffer has at least group capacity (storage.ColGroupRows)
// whatever was asked for, so a buffer one predicate filled serves any
// request of the next.
type Scratch struct {
	free [][]int32
	last []int32   // the selection FilterGroup returned last
	outs [][]int32 // orNode's term outputs: a stack, one frame per nested call
	idx  []int     // mergeUnion's cursors
	set  []bool    // a leaf's code table, for the length of its filter call
	// work counts the leaf evaluations that ran a loop over rows. A term
	// that returns with work where it was has been answered for the whole
	// group by what the dictionaries hold.
	work int
}

var scratchPool recycle.Pool[Scratch]

// NewScratch returns a scratch nobody else holds: a released one when
// there is one, its buffers kept.
func NewScratch() *Scratch { return scratchPool.Get() }

// Release gives the scratch up for the next NewScratch. The caller must
// be done with it, and with the last selection FilterGroup returned
// through it.
func (sc *Scratch) Release() {
	sc.put(sc.last)
	sc.last = nil
	scratchPool.Put(sc)
}

// get returns an empty buffer of capacity max(n, storage.ColGroupRows).
func (sc *Scratch) get(n int) []int32 {
	if k := len(sc.free); k > 0 && cap(sc.free[k-1]) >= n {
		b := sc.free[k-1]
		sc.free = sc.free[:k-1]
		return b[:0]
	}
	return make([]int32, 0, max(n, storage.ColGroupRows))
}

func (sc *Scratch) put(b []int32) {
	if b == nil {
		return
	}
	sc.free = append(sc.free, b)
}

// codeSet returns an all-false table over n dictionary codes.
func (sc *Scratch) codeSet(n int) []bool {
	if cap(sc.set) < n {
		sc.set = make([]bool, max(n, storage.ColGroupRows))
	}
	set := sc.set[:n]
	clear(set)
	return set
}

// identity is the full selection of a whole group, [0, ColGroupRows):
// never written, so every evaluator reads the same one.
var identity = func() []int32 {
	sel := make([]int32, storage.ColGroupRows)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// identitySel returns the full selection [0, n): every row of a group.
func identitySel(n int) []int32 {
	if n <= len(identity) {
		return identity[:n:n]
	}
	// Wider than any group the catalog builds.
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// TermStat is one top-level term's measured counters. The term was
// asked about Evaluated + Skipped candidate rows: Evaluated those some
// leaf of it ran a loop over, Skipped those in groups whose dictionaries
// answered it without one. Passed of them passed, so the term rejected
// Evaluated + Skipped - Passed. Counters cover both the warmup and
// frozen phases and are deterministic at any DOP.
type TermStat struct {
	Index     int
	Term      string
	Evaluated int64
	Skipped   int64
	Passed    int64
}

// Report describes a predicate's adaptive-ordering outcome.
type Report struct {
	// Combiner is "AND" or "OR" for a top-level conjunction or
	// disjunction, "" for a single-term predicate.
	Combiner string
	// Order is the frozen evaluation order as original term indices.
	Order []int
	// Terms lists per-term counters in original index order.
	Terms []TermStat
}

// Program is a compiled predicate: its leaves, the histogram-seeded
// selectivity of every term and the top-level terms' renderings. It is
// immutable, made once per plan and shared by all of its executions;
// each execution measures and orders the terms in a Pred of its own
// (New).
type Program struct {
	root     node
	terms    []string // top-level term renderings for Report
	combiner string
}

// New returns one execution's adaptively-ordered predicate over p: every
// term unmeasured, no order frozen. It allocates the combiners' counters
// and nothing else; the leaves stay p's.
func (p *Program) New() *Pred { return &Pred{Program: p, root: p.root.instance()} }

// Pred is one execution of a Program over column groups. The lifecycle
// is: New → FilterGroup over the warmup groups (single-threaded) →
// Freeze → FilterGroup from any number of goroutines, each with its own
// Scratch. A Scratch is not tied to the Pred it last served: it may come
// from, and go on to, any other.
type Pred struct {
	*Program
	root node // the Program's root with this execution's counters
}

// FilterGroup returns the row indices of g satisfying the predicate, in
// ascending order. The returned slice is owned by sc and valid only
// until the next FilterGroup call with the same Scratch, or its Release.
func (p *Pred) FilterGroup(g *storage.ColGroup, sc *Scratch) []int32 {
	sc.put(sc.last)
	sc.last = nil
	out := p.root.filter(g, identitySel(g.N), sc)
	sc.last = out
	return out
}

// Freeze ends the warmup phase: every AND/OR node ranks its terms from
// the measured counters (falling back to the histogram-seeded estimates
// for terms warmup never reached) and switches to short-circuiting
// evaluation under the frozen order. Must be called before FilterGroup
// is used concurrently.
func (p *Pred) Freeze() { p.root.freeze() }

// Report returns the chosen term order and per-term counters for the
// top-level combiner, in slices of its own.
func (p *Pred) Report() Report {
	r := Report{Combiner: p.combiner}
	if p.combiner == "" {
		// A single term: no ordering decision to report, whatever its
		// root compiled to (a NOT over an AND compiles to an OR).
		return r
	}
	var order []int
	var stats []termStats
	switch x := p.root.(type) {
	case *andNode:
		order, stats = x.order, x.stats
	case *orNode:
		order, stats = x.order, x.stats
	}
	r.Order = append([]int(nil), order...)
	if len(stats) > 0 {
		r.Terms = make([]TermStat, 0, len(stats))
	}
	for i := range stats {
		r.Terms = append(r.Terms, TermStat{
			Index: i, Term: p.terms[i],
			Evaluated: stats[i].eval.Load(), Skipped: stats[i].skip.Load(), Passed: stats[i].pass.Load(),
		})
	}
	return r
}

// termStats is one child's online counters plus its static seed.
type termStats struct {
	eval atomic.Int64 // rows asked about, in calls that ran a loop over rows
	skip atomic.Int64 // rows asked about, in calls that ran none
	pass atomic.Int64
	// seedSel is the histogram-estimated selectivity used when warmup
	// produced no measurements for this term.
	seedSel float64
}

// run filters sel through kid and accounts the call to the term.
func (ts *termStats) run(kid node, g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	before := sc.work
	out := kid.filter(g, sel, sc)
	if sc.work != before {
		ts.eval.Add(int64(len(sel)))
	} else {
		ts.skip.Add(int64(len(sel)))
	}
	ts.pass.Add(int64(len(out)))
	return out
}

// passRate returns the observed pass fraction — passed over asked,
// however the asking was answered — or the seed estimate when the term
// was never asked.
func (ts *termStats) passRate() float64 {
	asked := ts.eval.Load() + ts.skip.Load()
	if asked == 0 {
		return ts.seedSel
	}
	return float64(ts.pass.Load()) / float64(asked)
}

// rankOrder sorts term indices by score descending (stable; ties keep
// original order), the shared ranking for AND and OR nodes.
func rankOrder(n int, score func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return score(order[a]) > score(order[b])
	})
	return order
}

// andNode is an adaptively-ordered conjunction: successive refinement
// of the selection, cheapest-most-rejecting terms first once frozen.
type andNode struct {
	kids   []node
	stats  []termStats
	order  []int
	frozen bool
}

func (n *andNode) filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	if n.frozen {
		cur := sel
		owned := false
		for _, k := range n.order {
			if len(cur) == 0 {
				break
			}
			next := n.stats[k].run(n.kids[k], g, cur, sc)
			if owned {
				sc.put(cur)
			}
			cur, owned = next, true
		}
		if !owned {
			// Zero terms executed (empty input): return an owned copy to
			// keep the ownership invariant.
			return append(sc.get(len(cur)), cur...)
		}
		return cur
	}
	// Warmup: evaluate EVERY term over the full incoming selection so
	// each term's pass rate is measured on identical input, then
	// intersect. Output is identical to the frozen mode (intersection
	// is order-insensitive); only the work done differs.
	cur := append(sc.get(len(sel)), sel...)
	for i, kid := range n.kids {
		out := n.stats[i].run(kid, g, sel, sc)
		inter := intersect(sc, cur, out)
		sc.put(cur)
		sc.put(out)
		cur = inter
	}
	return cur
}

func (n *andNode) freeze() {
	// Highest rejection-per-cost first: score = (1 - passRate) / cost.
	n.order = rankOrder(len(n.kids), func(i int) float64 {
		return (1 - n.stats[i].passRate()) / n.kids[i].cost()
	})
	for _, k := range n.kids {
		k.freeze()
	}
	n.frozen = true
}

func (n *andNode) cost() float64 {
	c := 0.0
	for _, k := range n.kids {
		c += k.cost()
	}
	return c
}

func (n *andNode) instance() node {
	kids, stats := instances(n.kids, n.stats)
	return &andNode{kids: kids, stats: stats}
}

// instances returns a combiner's kids and counters for one execution:
// the kids' instances — the compiled slice itself when none has state —
// and counters that keep only the seeds.
func instances(kids []node, seeds []termStats) ([]node, []termStats) {
	stats := make([]termStats, len(seeds))
	for i := range seeds {
		stats[i].seedSel = seeds[i].seedSel
	}
	var own []node // kids copied, from the first kid with state on
	for i, k := range kids {
		ki := k.instance()
		if ki != k && own == nil {
			own = append([]node(nil), kids...)
		}
		if own != nil {
			own[i] = ki
		}
	}
	if own == nil {
		return kids, stats
	}
	return own, stats
}

// orNode is an adaptively-ordered disjunction: once frozen, terms run
// highest acceptance-per-cost first, each over only the rows no earlier
// term accepted (per-batch short-circuiting).
type orNode struct {
	kids   []node
	stats  []termStats
	order  []int
	frozen bool
}

func (n *orNode) filter(g *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	// The term outputs go on sc.outs above whatever an enclosing OR has
	// there; a nested OR does the same above these and pops its own.
	base := len(sc.outs)
	if n.frozen {
		rem := sel
		remOwned := false
		for _, k := range n.order {
			if len(rem) == 0 {
				break
			}
			out := n.stats[k].run(n.kids[k], g, rem, sc)
			if len(out) == 0 {
				// Nothing accepted: the remainder stands as it is.
				sc.put(out)
				continue
			}
			sc.outs = append(sc.outs, out)
			next := diff(sc, rem, out)
			if remOwned {
				sc.put(rem)
			}
			rem, remOwned = next, true
		}
		if remOwned {
			sc.put(rem)
		}
	} else {
		// Warmup: every term over the full selection (measured on
		// identical input); the union dedups overlaps.
		for i, kid := range n.kids {
			sc.outs = append(sc.outs, n.stats[i].run(kid, g, sel, sc))
		}
	}
	outs := sc.outs[base:]
	res := mergeUnion(sc, outs, len(sel))
	for _, o := range outs {
		sc.put(o)
	}
	sc.outs = sc.outs[:base]
	return res
}

func (n *orNode) freeze() {
	// Highest acceptance-per-cost first: score = passRate / cost.
	n.order = rankOrder(len(n.kids), func(i int) float64 {
		return n.stats[i].passRate() / n.kids[i].cost()
	})
	for _, k := range n.kids {
		k.freeze()
	}
	n.frozen = true
}

func (n *orNode) cost() float64 {
	c := 0.0
	for _, k := range n.kids {
		c += k.cost()
	}
	return c
}

func (n *orNode) instance() node {
	kids, stats := instances(n.kids, n.stats)
	return &orNode{kids: kids, stats: stats}
}

// trueNode passes every candidate row.
type trueNode struct{}

func (trueNode) filter(_ *storage.ColGroup, sel []int32, sc *Scratch) []int32 {
	return append(sc.get(len(sel)), sel...)
}
func (trueNode) freeze()          {}
func (trueNode) cost() float64    { return 0.1 }
func (n trueNode) instance() node { return n }

// falseNode rejects every candidate row.
type falseNode struct{}

func (falseNode) filter(_ *storage.ColGroup, _ []int32, sc *Scratch) []int32 {
	return sc.get(0)
}
func (falseNode) freeze()          {}
func (falseNode) cost() float64    { return 0.1 }
func (n falseNode) instance() node { return n }

// intersect returns a ∩ b for ascending slices, in a fresh buffer.
func intersect(sc *Scratch, a, b []int32) []int32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := sc.get(n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// diff returns a \ b for ascending slices, in a fresh buffer.
func diff(sc *Scratch, a, b []int32) []int32 {
	out := sc.get(len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// mergeUnion k-way merges ascending (possibly overlapping) slices into
// one deduplicated ascending result.
func mergeUnion(sc *Scratch, outs [][]int32, capHint int) []int32 {
	res := sc.get(capHint)
	switch len(outs) {
	case 0:
		return res
	case 1:
		return append(res, outs[0]...)
	}
	if cap(sc.idx) < len(outs) {
		sc.idx = make([]int, len(outs))
	}
	idx := sc.idx[:len(outs)]
	clear(idx)
	for {
		best := int32(math.MaxInt32)
		found := false
		for k, o := range outs {
			if idx[k] < len(o) && o[idx[k]] < best {
				best = o[idx[k]]
				found = true
			}
		}
		if !found {
			return res
		}
		res = append(res, best)
		for k, o := range outs {
			if idx[k] < len(o) && o[idx[k]] == best {
				idx[k]++
			}
		}
	}
}

// seedSelectivity estimates a term's selectivity from table statistics
// (0.5 when unavailable), used only for terms warmup never measured.
func seedSelectivity(ts *stats.TableStats, e expr.Expr) float64 {
	if ts == nil {
		return 0.5
	}
	return ts.Selectivity(e)
}

// Compile builds a vectorized predicate for e against schema s. ts,
// when non-nil, seeds the initial term-selectivity estimates from the
// table's histograms. ok is false when e contains a construct the
// vectorized evaluator does not support; callers then run the row path.
func Compile(e expr.Expr, s *value.Schema, ts *stats.TableStats) (*Program, bool) {
	root, ok := compileNode(e, false, s, ts)
	if !ok {
		return nil, false
	}
	p := &Program{root: root}
	// compileNode collapses single-kid combiners into their child, so the
	// report's term list must be read from the same unwrapped expression
	// the root node was actually built from.
	e = unwrapSingle(e)
	switch x := e.(type) {
	case expr.And:
		if _, isAnd := root.(*andNode); isAnd {
			p.combiner = "AND"
			for _, k := range x.Kids {
				p.terms = append(p.terms, k.String())
			}
			return p, true
		}
	case expr.Or:
		if _, isOr := root.(*orNode); isOr {
			p.combiner = "OR"
			for _, k := range x.Kids {
				p.terms = append(p.terms, k.String())
			}
			return p, true
		}
	}
	p.terms = []string{e.String()}
	return p, true
}

// unwrapSingle strips single-kid And/Or wrappers, mirroring the
// collapse compileNode performs.
func unwrapSingle(e expr.Expr) expr.Expr {
	for {
		switch x := e.(type) {
		case expr.And:
			if len(x.Kids) == 1 {
				e = x.Kids[0]
				continue
			}
		case expr.Or:
			if len(x.Kids) == 1 {
				e = x.Kids[0]
				continue
			}
		}
		return e
	}
}

// compileNode compiles e, or NOT e when neg as its negation normal form:
// each atom negated (a negated IN is a <> per value), AND and OR swapped,
// and a NOT cancelled, the form expr.Not.Eval evaluates.
func compileNode(e expr.Expr, neg bool, s *value.Schema, ts *stats.TableStats) (node, bool) {
	switch x := e.(type) {
	case expr.TrueExpr:
		return constNode(!neg), true
	case expr.FalseExpr:
		return constNode(neg), true
	case expr.Cmp:
		if neg {
			x.Op = x.Op.Negate()
		}
		return compileCmp(x, s), true
	case expr.ColCmp:
		if neg {
			x.Op = x.Op.Negate()
		}
		return compileColCmp(x, s), true
	case expr.In:
		if !neg {
			return compileIn(x, s), true
		}
		ne := make([]expr.Expr, len(x.Vals))
		for i, v := range x.Vals {
			ne[i] = expr.Cmp{Col: x.Col, Op: expr.OpNe, Val: v}
		}
		return compileCombiner(ne, true, false, s, ts)
	case expr.And:
		return compileCombiner(x.Kids, !neg, neg, s, ts)
	case expr.Or:
		return compileCombiner(x.Kids, neg, neg, s, ts)
	case expr.Not:
		return compileNode(x.Kid, !neg, s, ts)
	default:
		// Unknown expression implementation: refuse, the caller falls
		// back to the row-at-a-time path.
		return nil, false
	}
}

// compileCombiner compiles kids, each negated when neg, joined by AND
// when conj and by OR otherwise; an empty AND is TRUE, an empty OR FALSE.
func compileCombiner(kids []expr.Expr, conj, neg bool, s *value.Schema, ts *stats.TableStats) (node, bool) {
	switch len(kids) {
	case 0:
		return constNode(conj), true
	case 1:
		return compileNode(kids[0], neg, s, ts)
	}
	nodes, st := make([]node, len(kids)), make([]termStats, len(kids))
	for i, k := range kids {
		kid, ok := compileNode(k, neg, s, ts)
		if !ok {
			return nil, false
		}
		nodes[i], st[i].seedSel = kid, seedSelectivity(ts, k)
		if neg {
			st[i].seedSel = 1 - st[i].seedSel
		}
	}
	if conj {
		return &andNode{kids: nodes, stats: st}, true
	}
	return &orNode{kids: nodes, stats: st}, true
}

// constNode is the node that passes every row when holds and none
// otherwise.
func constNode(holds bool) node {
	if holds {
		return trueNode{}
	}
	return falseNode{}
}

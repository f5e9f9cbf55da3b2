// Property tests pinning the vectorized evaluator to the row-at-a-time
// oracle: for randomized predicates — including upper envelopes derived
// from all five model families — filtering a column group through
// vec.Pred must select EXACTLY the rows expr.Eval accepts, including
// SQL NULL semantics, cross-kind comparisons, IN lists with mixed
// kinds, and NOT over NULL-comparisons. Both evaluation phases
// (warmup/measure and frozen/short-circuit) are held to the contract.
// The oracle reads the rows the HEAP holds, decoded from its records:
// nothing it expects has been through a column group's dictionary.
package vec_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/exec/vec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a share of what it is given.
var raceEnabled bool

// fixture is a columnar table plus envelope predicates from all five
// model families trained on its data. rows[gi] are the heap's rows of
// column group gi.
type fixture struct {
	table     *catalog.Table
	cs        *storage.ColumnStore
	rows      [][]value.Tuple
	envelopes []expr.Expr
}

// Floats the score column deals besides its quarter steps: both zeros,
// NaN (below every number under value.Compare) and the infinities.
var oddFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

func buildFixture(t *testing.T, seed int64, rows int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := value.MustSchema(
		value.Column{Name: "age", Kind: value.KindInt},
		value.Column{Name: "income", Kind: value.KindInt},
		value.Column{Name: "score", Kind: value.KindFloat},
		value.Column{Name: "city", Kind: value.KindString},
		value.Column{Name: "flag", Kind: value.KindBool},
		value.Column{Name: "seg", Kind: value.KindString},
		value.Column{Name: "serial", Kind: value.KindInt}, // distinct per row: 16-bit codes
		value.Column{Name: "hole", Kind: value.KindInt},   // NULL throughout the second group
		value.Column{Name: "konst", Kind: value.KindInt},  // one value
	)
	c := catalog.New()
	tb, err := c.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	maybeNull := func(v value.Value) value.Value {
		if rng.Intn(12) == 0 {
			return value.Null()
		}
		return v
	}
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "age", Kind: value.KindInt},
		value.Column{Name: "income", Kind: value.KindInt},
	)}
	for i := 0; i < rows; i++ {
		age := int64(rng.Intn(10))
		income := int64(rng.Intn(8))
		seg := "regular"
		switch {
		case age <= 1 && income >= 6:
			seg = "vip"
		case income <= 1:
			seg = "budget"
		}
		score := float64(rng.Intn(200)) / 4
		if rng.Intn(10) == 0 {
			score = oddFloats[rng.Intn(len(oddFloats))]
		}
		city := fmt.Sprintf("c%d", rng.Intn(6))
		if rng.Intn(15) == 0 {
			city = ""
		}
		hole := value.Int(int64(rng.Intn(40)))
		if i/storage.ColGroupRows == 1 {
			hole = value.Null()
		}
		row := value.Tuple{
			maybeNull(value.Int(age)),
			maybeNull(value.Int(income)),
			maybeNull(value.Float(score)),
			maybeNull(value.Str(city)),
			maybeNull(value.Bool(rng.Intn(2) == 0)),
			value.Str(seg),
			value.Int(int64(i) * 2),
			hole,
			value.Int(3),
		}
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
		// Models train on the non-null feature space; the predicates they
		// yield are still evaluated against the full (nullable) table.
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(age), value.Int(income)})
		ts.Labels = append(ts.Labels, value.Str(seg))
	}
	if err := tb.EnableColumnar(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	cs := tb.ColumnStore()
	if cs == nil {
		t.Fatal("column store not fresh after EnableColumnar")
	}

	fx := &fixture{table: tb, cs: cs}
	var heap []value.Tuple
	if err := tb.Heap.Scan(func(_ storage.RID, rec []byte) bool {
		tup, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatalf("heap record does not decode: %v", err)
		}
		heap = append(heap, tup)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, g := range cs.Groups {
		fx.rows = append(fx.rows, heap[:g.N])
		heap = heap[g.N:]
	}
	if len(heap) != 0 {
		t.Fatalf("%d heap rows beyond the last column group", len(heap))
	}
	var models []mining.Model
	if m, err := dtree.Train("dt", "seg", ts, dtree.Options{}); err == nil {
		models = append(models, m)
	} else {
		t.Fatalf("dtree: %v", err)
	}
	if m, err := nbayes.Train("nb", "seg", ts, nbayes.Options{}); err == nil {
		models = append(models, m)
	} else {
		t.Fatalf("nbayes: %v", err)
	}
	if m, err := rules.Train("rl", "seg", ts, rules.Options{}); err == nil {
		models = append(models, m)
	} else {
		t.Fatalf("rules: %v", err)
	}
	if m, err := cluster.TrainKMeans("km", "cluster", ts, cluster.Options{K: 3, Seed: seed}); err == nil {
		models = append(models, m)
	} else {
		t.Fatalf("kmeans: %v", err)
	}
	if m, err := cluster.TrainGMM("gm", "component", ts, cluster.Options{K: 2, Seed: seed}); err == nil {
		models = append(models, m)
	} else {
		t.Fatalf("gmm: %v", err)
	}
	for _, m := range models {
		der, err := core.UpperEnvelopes(m, core.DefaultOptions())
		if err != nil {
			t.Fatalf("envelopes for %s: %v", m.Name(), err)
		}
		for _, cl := range m.Classes() {
			if env, ok := der.Envelopes[cl.String()]; ok {
				fx.envelopes = append(fx.envelopes, env)
			}
		}
	}
	if len(fx.envelopes) < 5 {
		t.Fatalf("expected envelopes from all 5 families, got %d", len(fx.envelopes))
	}
	return fx
}

// randValue draws a literal of a random kind — deliberately including
// kinds that mismatch any column, FLOATs that equal INTs a column holds
// and FLOATs between them, both zeros, NaN, the empty string, values no
// group holds, plus NULL.
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(9) {
	case 0:
		return value.Int(int64(rng.Intn(12) - 1))
	case 1:
		return value.Float(float64(rng.Intn(220))/4 - 1)
	case 2:
		return value.Str(fmt.Sprintf("c%d", rng.Intn(8)))
	case 3:
		return value.Bool(rng.Intn(2) == 0)
	case 4:
		return value.Null()
	case 5:
		return value.Float(oddFloats[rng.Intn(len(oddFloats))])
	case 6:
		return value.Int(int64(rng.Intn(12000) - 1000)) // serial holds the even ones up to 2*rows
	case 7:
		return value.Str([]string{"", "c", "c10", "regular", "vip"}[rng.Intn(5)])
	default:
		return value.Int(int64(rng.Intn(10)))
	}
}

var predCols = []string{"age", "income", "score", "city", "flag", "seg", "serial", "hole", "konst", "nosuchcol"}

func randCol(rng *rand.Rand) string { return predCols[rng.Intn(len(predCols))] }

var cmpOps = []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// randPred generates a random predicate tree exercising every
// expression form the compiler handles: comparisons (including
// cross-kind and NULL literals), IN with mixed-kind/duplicate/empty
// lists, column-column comparisons, TRUE/FALSE constants, NOT, and
// AND/OR with empty, single, and duplicate children.
func randPred(rng *rand.Rand, fx *fixture, depth int) expr.Expr {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(4) {
		case 0: // AND
			kids := randKids(rng, fx, depth)
			return expr.And{Kids: kids}
		case 1: // OR
			kids := randKids(rng, fx, depth)
			return expr.Or{Kids: kids}
		case 2:
			return expr.Not{Kid: randPred(rng, fx, depth-1)}
		default: // a model-family envelope, possibly nested further
			return fx.envelopes[rng.Intn(len(fx.envelopes))]
		}
	}
	switch rng.Intn(6) {
	case 0:
		return expr.TrueExpr{}
	case 1:
		return expr.FalseExpr{}
	case 2:
		vals := make([]value.Value, rng.Intn(5))
		for i := range vals {
			vals[i] = randValue(rng)
		}
		if len(vals) > 1 && rng.Intn(2) == 0 {
			vals = append(vals, vals[0]) // duplicate element
		}
		return expr.In{Col: randCol(rng), Vals: vals}
	case 3:
		return expr.ColCmp{ColA: randCol(rng), Op: cmpOps[rng.Intn(len(cmpOps))], ColB: randCol(rng)}
	default:
		return expr.Cmp{Col: randCol(rng), Op: cmpOps[rng.Intn(len(cmpOps))], Val: randValue(rng)}
	}
}

// randKids draws 0-4 children (empty and single-child combiners are
// legal expr values) with a chance of a duplicated term.
func randKids(rng *rand.Rand, fx *fixture, depth int) []expr.Expr {
	n := rng.Intn(5)
	kids := make([]expr.Expr, 0, n+1)
	for i := 0; i < n; i++ {
		kids = append(kids, randPred(rng, fx, depth-1))
	}
	if len(kids) > 0 && rng.Intn(3) == 0 {
		kids = append(kids, kids[0]) // duplicate term
	}
	return kids
}

// oracleSel returns the selection the row-at-a-time evaluator produces
// for column group gi, over the heap's rows.
func oracleSel(fx *fixture, gi int, pred expr.Expr) []int32 {
	var out []int32
	for i, row := range fx.rows[gi] {
		if pred.Eval(fx.table.Schema, row) {
			out = append(out, int32(i))
		}
	}
	return out
}

// topTerms returns the terms vec.Report counts for pred: the kids of its
// top-level AND or OR once single-kid wrappers are stripped, none for a
// single-term predicate.
func topTerms(pred expr.Expr) (kids []expr.Expr, and bool) {
	for {
		switch x := pred.(type) {
		case expr.And:
			if len(x.Kids) == 1 {
				pred = x.Kids[0]
				continue
			}
			if len(x.Kids) > 1 {
				return x.Kids, true
			}
		case expr.Or:
			if len(x.Kids) == 1 {
				pred = x.Kids[0]
				continue
			}
			if len(x.Kids) > 1 {
				return x.Kids, false
			}
		}
		return nil, false
	}
}

// blindCounts is what an evaluator that knows nothing of dictionaries
// asks of each top-level term and gets back, computed row by row from
// the heap: every term over every row of the first warm groups, then the
// frozen order with short-circuiting — an OR term sees the rows no
// earlier term accepted, an AND term those every earlier term kept.
//
// For a term that is one `col op literal` or IN leaf the heap also says
// how it must have been answered: without a loop (mustSkip) in the
// groups none of whose rows pass it, since then no value the group holds
// does; by a loop (mustLoop) in the groups where some rows pass and some
// do not. A group whose rows all pass may be answered either way.
func blindCounts(fx *fixture, kids []expr.Expr, and bool, order []int, warm int) (asked, passed, mustSkip, mustLoop []int64) {
	asked, passed = make([]int64, len(kids)), make([]int64, len(kids))
	mustSkip, mustLoop = make([]int64, len(kids)), make([]int64, len(kids))
	ask := func(k, gi, n int) {
		asked[k] += int64(n)
		switch kids[k].(type) {
		case expr.Cmp, expr.In:
		default:
			return
		}
		pass := len(oracleSel(fx, gi, kids[k]))
		switch {
		case pass == 0:
			mustSkip[k] += int64(n)
		case pass < len(fx.rows[gi]):
			mustLoop[k] += int64(n)
		}
	}
	for gi, rows := range fx.rows {
		if gi < warm {
			for k, kid := range kids {
				ask(k, gi, len(rows))
				for _, row := range rows {
					if kid.Eval(fx.table.Schema, row) {
						passed[k]++
					}
				}
			}
			continue
		}
		rem := rows
		for _, k := range order {
			if len(rem) == 0 {
				break
			}
			ask(k, gi, len(rem))
			var next []value.Tuple
			for _, row := range rem {
				ok := kids[k].Eval(fx.table.Schema, row)
				if ok {
					passed[k]++
				}
				if ok == and {
					next = append(next, row)
				}
			}
			rem = next
		}
	}
	return asked, passed, mustSkip, mustLoop
}

func selEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVecMatchesRowOracle is the core equivalence property: vectorized
// == row-at-a-time, exactly, for both the warmup and frozen phases — and
// the per-term counters are those of an evaluator without dictionaries,
// with the rows a dictionary answered moved from Evaluated to Skipped.
func TestVecMatchesRowOracle(t *testing.T) {
	fx := buildFixture(t, 20250807, 3*storage.ColGroupRows+900)
	rng := rand.New(rand.NewSource(99))
	iters := 400
	if testing.Short() {
		iters = 120
	}
	const warm = 2
	stats := fx.table.Stats()
	var evaluated, skipped int64
	for it := 0; it < iters; it++ {
		var pred expr.Expr
		if it%7 == 3 {
			// A bare envelope from one of the model families.
			pred = fx.envelopes[it%len(fx.envelopes)]
		} else {
			pred = randPred(rng, fx, 4)
		}
		ts := stats
		if it%2 == 1 {
			ts = nil // half the runs without histogram seeding
		}
		prog, ok := vec.Compile(pred, fx.table.Schema, ts)
		if !ok {
			t.Fatalf("iter %d: compile refused supported predicate %s", it, pred)
		}
		p := prog.New()
		sc := vec.NewScratch()
		for gi, g := range fx.cs.Groups {
			if gi == warm {
				// Freeze mid-stream: remaining groups run the
				// short-circuiting frozen order and must agree too.
				p.Freeze()
			}
			want := oracleSel(fx, gi, pred)
			got := p.FilterGroup(g, sc)
			if !selEqual(got, want) {
				t.Fatalf("iter %d group %d (frozen %v): pred %s\n got %d rows, want %d rows",
					it, gi, gi >= warm, pred, len(got), len(want))
			}
		}
		sc.Release()
		rep := p.Report()
		kids, and := topTerms(pred)
		if len(rep.Order) != len(rep.Terms) || len(rep.Terms) != len(kids) {
			t.Fatalf("iter %d: order has %d entries, %d terms reported for %d in %s", it, len(rep.Order), len(rep.Terms), len(kids), pred)
		}
		asked, passed, mustSkip, mustLoop := blindCounts(fx, kids, and, rep.Order, warm)
		for k, term := range rep.Terms {
			if term.Passed > term.Evaluated+term.Skipped {
				t.Fatalf("iter %d: term %d passed %d > evaluated %d + skipped %d", it, term.Index, term.Passed, term.Evaluated, term.Skipped)
			}
			if term.Evaluated+term.Skipped != asked[k] || term.Passed != passed[k] {
				t.Fatalf("iter %d: term %d (%s) of %s: evaluated %d + skipped %d, passed %d; row by row it is asked %d, passes %d",
					it, term.Index, term.Term, pred, term.Evaluated, term.Skipped, term.Passed, asked[k], passed[k])
			}
			if term.Skipped < mustSkip[k] || term.Evaluated < mustLoop[k] {
				t.Fatalf("iter %d: term %d (%s) of %s: evaluated %d, skipped %d; the heap says at least %d need a loop and at least %d need none",
					it, term.Index, term.Term, pred, term.Evaluated, term.Skipped, mustLoop[k], mustSkip[k])
			}
			evaluated += term.Evaluated
			skipped += term.Skipped
		}
	}
	// Both ways of answering a term were exercised.
	if evaluated == 0 || skipped == 0 {
		t.Fatalf("terms evaluated %d rows and skipped %d: one of the two paths never ran", evaluated, skipped)
	}
	t.Logf("terms ran loops over %d rows and were answered by dictionaries for %d", evaluated, skipped)
}

// TestVecScratchReuse pins the buffer-recycling contract: re-filtering
// the same group with the same scratch yields identical selections.
func TestVecScratchReuse(t *testing.T) {
	fx := buildFixture(t, 7, 3000)
	pred := expr.Or{Kids: []expr.Expr{
		expr.Cmp{Col: "age", Op: expr.OpLe, Val: value.Int(2)},
		expr.And{Kids: []expr.Expr{
			expr.Cmp{Col: "income", Op: expr.OpGe, Val: value.Int(6)},
			expr.Not{Kid: expr.Cmp{Col: "city", Op: expr.OpEq, Val: value.Str("c1")}},
		}},
		expr.In{Col: "seg", Vals: []value.Value{value.Str("vip"), value.Str("budget")}},
	}}
	prog, ok := vec.Compile(pred, fx.table.Schema, nil)
	if !ok {
		t.Fatal("compile refused predicate")
	}
	p := prog.New()
	sc := vec.NewScratch()
	g := fx.cs.Groups[0]
	first := append([]int32(nil), p.FilterGroup(g, sc)...)
	p.Freeze()
	for i := 0; i < 10; i++ {
		got := p.FilterGroup(g, sc)
		if !selEqual(got, first) {
			t.Fatalf("round %d: selection changed under scratch reuse", i)
		}
	}
	want := oracleSel(fx, 0, pred)
	if !selEqual(first, want) {
		t.Fatalf("selection disagrees with oracle: got %d want %d rows", len(first), len(want))
	}
}

// TestProgramExecutionsAreIndependent: one compiled Program serves many
// executions, each measuring and ordering its terms in a Pred of its
// own. Two executions over the same groups select and report alike, and
// neither's counters or frozen order move when the other runs — also
// when the nested combiners under a NOT carry state.
func TestProgramExecutionsAreIndependent(t *testing.T) {
	fx := buildFixture(t, 5, 3*storage.ColGroupRows)
	pred := expr.Or{Kids: []expr.Expr{
		expr.Cmp{Col: "age", Op: expr.OpLe, Val: value.Int(2)},
		expr.Not{Kid: expr.And{Kids: []expr.Expr{
			expr.Cmp{Col: "income", Op: expr.OpGe, Val: value.Int(3)},
			expr.Cmp{Col: "city", Op: expr.OpNe, Val: value.Str("c1")},
		}}},
		expr.In{Col: "seg", Vals: []value.Value{value.Str("vip")}},
	}}
	prog, ok := vec.Compile(pred, fx.table.Schema, nil)
	if !ok {
		t.Fatal("compile refused predicate")
	}
	run := func(p *vec.Pred) (string, vec.Report) {
		sc := vec.NewScratch()
		defer sc.Release()
		var sels strings.Builder
		for gi, g := range fx.cs.Groups {
			if gi == 1 {
				p.Freeze()
			}
			fmt.Fprintln(&sels, p.FilterGroup(g, sc))
		}
		return sels.String(), p.Report()
	}
	first := prog.New()
	sel1, rep1 := run(first)
	sel2, rep2 := run(prog.New())
	if sel1 != sel2 || fmt.Sprint(rep1) != fmt.Sprint(rep2) {
		t.Fatalf("two executions of one program differ:\n%v\n%v", rep1, rep2)
	}
	if got := first.Report(); fmt.Sprint(got) != fmt.Sprint(rep1) {
		t.Fatalf("the second execution moved the first's counters:\n%v\nwas\n%v", got, rep1)
	}
	if rep1.Terms[0].Evaluated+rep1.Terms[0].Skipped == 0 {
		t.Fatal("no term was asked about; the test is vacuous")
	}
}

// TestVecScratchRecycled pins what a scratch may assume of its past: one
// released after a wide OR over a full group — parked holding that
// predicate's buffers, its stack of term outputs and its merge cursors —
// and picked up by a different predicate over the short last group must
// still select exactly what the oracle does, and whatever was parked in
// it, get never hands out a buffer shorter than asked for.
func TestVecScratchRecycled(t *testing.T) {
	fx := buildFixture(t, 11, 2*storage.ColGroupRows+700)
	last := len(fx.cs.Groups) - 1
	full, short := fx.cs.Groups[0], fx.cs.Groups[last]
	if full.N != storage.ColGroupRows || short.N >= full.N {
		t.Fatalf("fixture groups have %d and %d rows", full.N, short.N)
	}
	var terms []expr.Expr
	for k := 0; k < 16; k++ {
		terms = append(terms, expr.And{Kids: []expr.Expr{
			expr.Cmp{Col: "age", Op: expr.OpEq, Val: value.Int(int64(k % 10))},
			expr.Cmp{Col: "income", Op: expr.OpEq, Val: value.Int(int64(k % 8))},
		}})
	}
	wide := expr.Or{Kids: terms}
	others := []expr.Expr{
		expr.Not{Kid: expr.Or{Kids: []expr.Expr{
			expr.Cmp{Col: "city", Op: expr.OpEq, Val: value.Str("c1")},
			expr.And{Kids: []expr.Expr{
				expr.Cmp{Col: "score", Op: expr.OpLt, Val: value.Float(20)},
				expr.Or{Kids: []expr.Expr{
					expr.Cmp{Col: "flag", Op: expr.OpEq, Val: value.Bool(true)},
					expr.In{Col: "seg", Vals: []value.Value{value.Str("vip")}},
				}},
			}},
		}}},
		expr.Cmp{Col: "age", Op: expr.OpGe, Val: value.Int(5)},
		fx.envelopes[0],
	}
	compile := func(e expr.Expr, freeze bool) *vec.Pred {
		prog, ok := vec.Compile(e, fx.table.Schema, nil)
		if !ok {
			t.Fatalf("compile refused %s", e)
		}
		p := prog.New()
		if freeze {
			p.Freeze()
		}
		return p
	}
	reused := 0
	for round := 0; round < 16; round++ {
		sc := vec.NewScratch()
		wp := compile(wide, round%2 == 0)
		if got, want := wp.FilterGroup(full, sc), oracleSel(fx, 0, wide); !selEqual(got, want) {
			t.Fatalf("round %d: wide OR selects %d rows of the full group, oracle %d", round, len(got), len(want))
		}
		sc.Release()

		next := vec.NewScratch()
		if next == sc {
			reused++
		}
		other := others[round%len(others)]
		op := compile(other, round%4 < 2)
		if got, want := op.FilterGroup(short, next), oracleSel(fx, last, other); !selEqual(got, want) {
			t.Fatalf("round %d: %s selects %d rows of the short group through a recycled scratch, oracle %d",
				round, other, len(got), len(want))
		}
		for _, n := range []int{0, 1, short.N, storage.ColGroupRows, storage.ColGroupRows + 1, 3 * storage.ColGroupRows, 5} {
			b := next.Get(n)
			if len(b) != 0 || cap(b) < n || cap(b) < storage.ColGroupRows {
				t.Fatalf("round %d: get(%d) returned len %d cap %d", round, n, len(b), cap(b))
			}
			next.Put(b)
		}
		next.Release()
	}
	// sync.Pool keeps no promise, and under the race detector drops a
	// share of what it is given on purpose.
	t.Logf("%d of 16 scratches came back from the pool", reused)
	if reused == 0 && !raceEnabled {
		t.Fatal("no released scratch was ever handed out again")
	}
}

// TestAllocFilterGroupSteadyState: once a scratch has served a predicate
// over one group, serving it again allocates nothing — the selection
// buffers, the OR's term outputs, the union's cursors, the full
// selection and the leaves' translation of their literals into codes are
// all reused or on the stack — and that survives the scratch being
// released and taken up again.
func TestAllocFilterGroupSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fx := buildFixture(t, 3, storage.ColGroupRows+300)
	var terms []expr.Expr
	for k := 0; k < 16; k++ {
		terms = append(terms, expr.Or{Kids: []expr.Expr{
			expr.And{Kids: []expr.Expr{
				expr.Cmp{Col: "age", Op: expr.OpEq, Val: value.Int(int64(k % 10))},
				expr.Cmp{Col: "income", Op: expr.OpEq, Val: value.Int(int64(k % 8))},
			}},
			expr.Cmp{Col: "score", Op: expr.OpGt, Val: value.Float(49)},
			// Codes that are not one interval: the leaf's table of codes is
			// the scratch's too.
			expr.And{Kids: []expr.Expr{
				expr.In{Col: "city", Vals: []value.Value{value.Str("c1"), value.Str("c4"), value.Str("nowhere")}},
				expr.In{Col: "serial", Vals: []value.Value{value.Int(int64(40 * k)), value.Float(float64(900 + 2*k)), value.Int(7)}},
				expr.Cmp{Col: "hole", Op: expr.OpNe, Val: value.Int(int64(k))},
			}},
		}})
	}
	for _, frozen := range []bool{false, true} {
		prog, ok := vec.Compile(expr.Or{Kids: terms}, fx.table.Schema, nil)
		if !ok {
			t.Fatal("compile refused predicate")
		}
		p := prog.New()
		if frozen {
			p.Freeze()
		}
		sc := vec.NewScratch()
		for _, g := range fx.cs.Groups {
			p.FilterGroup(g, sc)
		}
		if n := testing.AllocsPerRun(20, func() {
			for _, g := range fx.cs.Groups {
				p.FilterGroup(g, sc)
			}
			sc.Release()
			sc = vec.NewScratch()
		}); n != 0 {
			t.Errorf("frozen=%v: a warm scratch still allocates %.0f times per pass over the groups", frozen, n)
		}
		sc.Release()
	}
}

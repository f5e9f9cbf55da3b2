package minequery_test

// TestModelCheck is the engine's one model check. A reference — plain
// Go state — holds what the engine should: the rows of t in heap order,
// partition-major when partitioned; its own copy of every model, trained
// with the same inducer over its own rows, so a model is a view over its
// CREATE MODEL … AS SELECT and a retrain refreshes the view; and every
// subscription as a closure. One seeded generator interleaves reads,
// aggregates, DML, CREATE MODEL, threshold retrains and (un)subscribes
// with DOP, columnar and fault flips and WAL crashes. Every statement
// carries its SQL and its effect on the reference, and after every step
// the engine must agree with it. Nothing on the reference side runs exec,
// opt, vec or expr.Eval. A failure prints the layout, seed, step and the
// statements since the last restart; go test -run
// 'TestModelCheck/<layout>/seed=<n>', or a narrowed run's own name,
// replays it.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mq "minequery"
	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/server"
	"minequery/internal/wire"
)

func TestModelCheck(t *testing.T) {
	seeds, steps := 3, 300
	if testing.Short() {
		seeds, steps = 1, 250
	}
	var mu sync.Mutex
	total, runs := map[string]int{}, 0
	for _, layout := range []string{"plain", "partitioned"} {
		t.Run(layout, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					cov := runModelCheck(t, layout, seed, shape{steps, everything, 250, len(families)})
					mu.Lock()
					defer mu.Unlock()
					for k, n := range cov {
						total[k] += n
					}
					runs++
				})
			}
		})
	}
	// Vacuity guards, when every run ran: a path no run took, nothing checked.
	for _, k := range strings.Split("index path|columnar execution|columnar after a sidecar rebuild|"+
		"pruned partition|fallback|stale plan|retrain|ungrouped aggregate|NaN in an answer|-0.0 in an answer|"+
		"notification|standing recompile|recovered acked|recovered acked+pending|torn tail|second crash cycle|"+
		"compaction under a scan|compaction under an index seek", "|") {
		if runs == 2*seeds && total[k] == 0 {
			t.Errorf("no run exercised %q: the generator or the engine drifted", k)
		}
	}
	t.Logf("coverage: %v", total)
}

// A mix weighs stepOnce's kinds, in its order: SELECT, aggregate, DML,
// CREATE MODEL, subscribe, unsubscribe, DOP flip, EnableColumnar,
// Analyze, arm a WAL kill, a read under a compaction. A kind whose
// precondition fails falls through to the next.
type mix [11]int

var (
	everything = mix{30, 18, 24, 4, 6, 3, 4, 4, 4, 3, 4}
	reads      = mix{30, 0, 0, 0, 0, 0, 4}
	aggregates = mix{0, 30, 0, 0, 0, 0, 4}
	writes     = mix{10, 6, 24, 0, 0, 0, 4, 0, 4}
	standing   = mix{2, 0, 24, 4, 6, 3, 4}
	crashes    = mix{2, 0, 24, 4, 0, 0, 0, 0, 0, 6}
)

// The per-layer sweeps the model check replaced keep their names, each
// now a run of it narrowed to its layer: the same reference and checks,
// steps drawn from what the sweep was about, and a guard that they ran.

func TestDifferentialRandomQueries(t *testing.T) {
	narrowed(t, "plain", 20250805, 200, reads, "index path", "fallback")
}

func TestDifferentialColumnarSweep(t *testing.T) {
	narrowed(t, "columnar", 20260807, 200, reads, "columnar execution", "fallback")
}

func TestDifferentialPreparedMatchesAdHoc(t *testing.T) {
	narrowed(t, "plain", 424242, 150, reads, "prepared read")
}

func TestDifferentialPartitionedRandomQueries(t *testing.T) {
	narrowed(t, "partitioned", 20260805, 200, reads, "pruned partition")
}

func TestDifferentialAggregateQueries(t *testing.T) {
	narrowed(t, "plain", 20260808, 150, aggregates, "ungrouped aggregate", "fallback")
}

func TestDifferentialAggregateColumnar(t *testing.T) {
	narrowed(t, "columnar", 20260809, 150, aggregates, "columnar execution")
}

func TestDifferentialAggregatePartitioned(t *testing.T) {
	narrowed(t, "partitioned", 20260810, 150, aggregates, "pruned partition")
}

func TestDMLDifferentialSweep(t *testing.T) {
	for _, l := range []struct{ name, layout, guard string }{
		{"row", "plain", "retrain"},
		{"columnar", "columnar", "columnar after a sidecar rebuild"},
		{"partitioned", "partitioned", "pruned partition"},
	} {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			narrowed(t, l.layout, 20260808, 150, writes, l.guard)
		})
	}
}

func TestStandingDifferentialSweep(t *testing.T) {
	narrowed(t, "plain", 880808, 150, standing, "notification", "standing recompile")
}

// TestWALCrashRecovery runs 300 short seeds of writes under WAL kills
// over a small table, each recovering at least once.
func TestWALCrashRecovery(t *testing.T) {
	var mu sync.Mutex
	total := map[string]int{}
	for seed := int64(0); seed < 300; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cov := runModelCheck(t, []string{"plain", "partitioned"}[seed%2], seed, shape{24, crashes, 60, 2})
			if cov["recovered acked"]+cov["recovered acked+pending"] == 0 {
				t.Errorf("seed %d never crashed", seed)
			}
			mu.Lock()
			defer mu.Unlock()
			for k, n := range cov {
				total[k] += n
			}
		})
	}
	t.Cleanup(func() {
		for _, k := range []string{"recovered acked", "recovered acked+pending", "torn tail", "second crash cycle", "retrain"} {
			if !t.Failed() && total[k] == 0 {
				t.Errorf("no seed exercised %q", k)
			}
		}
	})
}

func narrowed(t *testing.T, layout string, seed int64, steps int, m mix, guards ...string) {
	cov := runModelCheck(t, layout, seed, shape{steps, m, 250, len(families)})
	t.Logf("coverage: %v", cov)
	for _, k := range guards {
		if cov[k] == 0 {
			t.Errorf("no step exercised %q: the generator or the engine drifted", k)
		}
	}
}

// ---- the reference ----

// The columns of t; a row extended by PREDICTION JOINs has join k's
// prediction at 5+k.
const (
	cID = iota
	cCat
	cNum
	cX
	cLbl
)

var tCols = []string{"id", "cat", "num", "x", "lbl"}

func tSchema() *mq.Schema {
	return mq.MustSchema(mq.Column{Name: "id", Kind: mq.KindInt}, mq.Column{Name: "cat", Kind: mq.KindString},
		mq.Column{Name: "num", Kind: mq.KindInt}, mq.Column{Name: "x", Kind: mq.KindFloat},
		mq.Column{Name: "lbl", Kind: mq.KindString})
}

// refModel is one CREATE MODEL: its view, and the reference's training
// of it with the catalog fingerprint of that and its envelopes.
type refModel struct {
	family, predict string
	feats           []int
	where           func(mq.Tuple) bool // nil: the whole table
	m               mining.Model
	fp              string
	version         int64
}

type ref struct {
	partOrd int          // the partition column; -1 for the plain layout
	bounds  []float64    // the partition cuts
	parts   [][]mq.Tuple // the rows in heap order, partition-major
	models  map[string]*refModel
	order   []string // CREATE MODEL order, which retrains follow
	subs    map[int64]query
	// since counts rows written toward the retrain threshold thr; epoch,
	// catalog changes; the sidecar is enabled, fresh, rebuilt by Analyze.
	since, thr, epoch        int64
	columnar, fresh, rebuilt bool
}

func (r *ref) rows() []mq.Tuple { return slices.Concat(r.parts...) }

// insert appends each row to its partition: the one past the cuts at or
// below its partition value.
func (r *ref) insert(rows ...mq.Tuple) {
	for _, w := range rows {
		p := 0
		for _, b := range r.bounds {
			p += b2i(cmp.Compare(b, w[r.partOrd].AsFloat()) <= 0)
		}
		r.parts[p] = append(r.parts[p], w)
	}
}

// take removes the rows p holds for, in heap order, and returns them.
func (r *ref) take(p pred) (out []mq.Tuple) {
	for i := range r.parts {
		r.parts[i] = slices.DeleteFunc(r.parts[i], func(w mq.Tuple) bool {
			ok := p.ok(w)
			if ok {
				out = append(out, w)
			}
			return ok
		})
	}
	return out
}

// fit trains md's view over r's rows and derives its envelopes.
func (r *ref) fit(name string, md *refModel) (m mining.Model, fp string, err error) {
	cols := make([]mq.Column, len(md.feats))
	for i, o := range md.feats {
		cols[i] = tSchema().Col(o)
	}
	ts := &mining.TrainSet{Schema: mq.MustSchema(cols...)}
	for _, w := range r.rows() {
		if label := mq.Null(); md.where == nil || md.where(w) {
			if md.predict == "lbl" {
				label = w[cLbl]
			}
			ts.Rows, ts.Labels = append(ts.Rows, project(w, md.feats)), append(ts.Labels, label)
		}
	}
	cs, err := ts.Columns()
	if err != nil {
		return nil, "", err
	}
	switch md.family {
	case "dtree":
		m, err = dtree.TrainColumns(name, md.predict, cs, dtree.Options{})
	case "nbayes":
		m, err = nbayes.Train(name, md.predict, ts, nbayes.Options{})
	case "rules":
		m, err = rules.TrainColumns(name, md.predict, cs, rules.Options{})
	case "kmeans":
		m, err = cluster.TrainKMeansColumns(name, md.predict, cs, cluster.Options{K: 3, Seed: 1})
	default:
		m, err = cluster.TrainGMMColumns(name, md.predict, cs, cluster.Options{K: 3, Seed: 1})
	}
	if err != nil {
		return nil, "", err
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		return nil, "", err
	}
	return m, catalog.New().RegisterModel(m, der.Envelopes).Fingerprint, nil
}

// exec applies st to r (err: a CREATE MODEL that cannot train), raises
// its rows' notifications under the models they commit against, then
// crosses the retrain threshold.
func (r *ref) exec(st stmt) (n int64, notes, retrained []string, err, retrainErr error) {
	n, images, err := st.apply(r)
	r.fresh = r.fresh && n == 0
	for id, s := range r.subs {
		for _, row := range s.match(r, images) {
			notes = append(notes, fmt.Sprintf("sub=%d|%s|%s", id, strings.Join(s.cols, ","), keysOf(row)[0]))
		}
	}
	if r.since += n; n == 0 || r.since < r.thr {
		return
	}
	prev := r.since
	r.since = 0
	for _, name := range r.order {
		md := r.models[name]
		m, fp, ferr := r.fit(name, md)
		if ferr != nil {
			r.since, retrainErr = prev, ferr
			return
		}
		md.m, md.fp, md.version = m, fp, md.version+1
		r.epoch++
		retrained = append(retrained, name)
	}
	return
}

// extend appends to each row the predictions of js's models.
func (r *ref) extend(rows []mq.Tuple, js []join) []mq.Tuple {
	out := make([]mq.Tuple, len(rows))
	for i, w := range rows {
		out[i] = slices.Clone(w)
		for _, j := range js {
			b, _ := mining.Bind(r.models[j.model].m, tSchema())
			out[i] = append(out[i], b.Predict(w))
		}
	}
	return out
}

func project(e mq.Tuple, proj []int) mq.Tuple {
	out := make(mq.Tuple, len(proj))
	for i, o := range proj {
		out[i] = e[o]
	}
	return out
}

// refOrder is the reference's own order: cmp.Compare's, where NaN equals
// NaN and sorts below every number, and −0.0 equals 0.
func refOrder(a, b mq.Value) int {
	switch a.Kind() {
	case mq.KindInt:
		return cmp.Compare(a.AsInt(), b.AsInt())
	case mq.KindFloat:
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	return cmp.Compare(a.AsString(), b.AsString())
}

// canon is the one form a group key or MIN/MAX stores of values refOrder ties.
func canon(v mq.Value) mq.Value {
	if v.Kind() == mq.KindFloat && (v.AsFloat() == 0 || math.IsNaN(v.AsFloat())) {
		return mq.Float(math.Abs(v.AsFloat()))
	}
	return v
}

// ---- statements ----

// pred is a WHERE and the reference's evaluation of it over a row.
type pred struct {
	sql string
	ok  func(mq.Tuple) bool
}

// join is one PREDICTION JOIN: model, predicted column, classes.
type join struct {
	model, col string
	classes    []mq.Value
}

// stmt is one write and its effect on a reference: rows written and, for
// INSERT and UPDATE, their new images.
type stmt struct {
	sql   string
	model bool // CREATE MODEL
	apply func(*ref) (n int64, images []mq.Tuple, err error)
}

// query is one read or subscription and its answer over a reference's
// rows; a grouped aggregate answers in group order.
type query struct {
	sql                string
	limit              int64 // -1: none
	grouped, ungrouped bool
	cols               []string // the select list, as notifications name it
	match              func(r *ref, rows []mq.Tuple) []mq.Tuple
}

var ops = []struct {
	sql   string
	holds func(int) bool
}{
	{"=", func(c int) bool { return c == 0 }}, {"<>", func(c int) bool { return c != 0 }},
	{"<", func(c int) bool { return c < 0 }}, {"<=", func(c int) bool { return c <= 0 }},
	{">", func(c int) bool { return c > 0 }}, {">=", func(c int) bool { return c >= 0 }},
}

// sqlOf renders a literal the parser reads back as v (a whole FLOAT as
// the INT equal to it); −0.0 keeps its point.
func sqlOf(v mq.Value) string {
	switch {
	case v.Kind() == mq.KindString:
		return "'" + v.AsString() + "'"
	case v.Kind() == mq.KindFloat && v.AsFloat() == 0 && math.Signbit(v.AsFloat()):
		return "-0.0"
	}
	return v.String()
}

// names are the names of columns of a row extended by js.
func names(cols []int, js []join) []string {
	out := make([]string, len(cols))
	for i, o := range cols {
		if o < len(tCols) {
			out[i] = tCols[o]
		} else {
			out[i] = js[o-len(tCols)].col
		}
	}
	return out
}

// literal draws a value column o may hold. NaN and ±Inf have no SQL
// literal: only seed rows hold them.
func (c *check) literal(o int, js []join) mq.Value {
	switch o {
	case cID, cNum:
		return mq.Int(int64(c.r.Intn(100)))
	case cCat:
		return mq.Str(fmt.Sprintf("c%d", c.r.Intn(8)))
	case cX:
		if c.r.Intn(3) == 0 {
			return mq.Float(float64(c.r.Intn(81)-40) / 4)
		}
		return mq.Float([]float64{0, math.Copysign(0, -1), 0.5, 1.5, 3, 5, -2.5, 7.25}[c.r.Intn(8)])
	case cLbl:
		return mq.Str([]string{"red", "green", "blue"}[c.r.Intn(3)])
	}
	classes := js[o-len(tCols)].classes
	return classes[c.r.Intn(len(classes))]
}

// newRow draws a row of t, its label following num nine times in ten.
func (c *check) newRow(seed bool) mq.Tuple {
	c.nextID++
	w := mq.Tuple{mq.Int(c.nextID), c.literal(cCat, nil), c.literal(cNum, nil), c.literal(cX, nil), c.literal(cLbl, nil)}
	if seed && c.r.Intn(8) == 0 {
		w[cX] = mq.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[c.r.Intn(3)])
	}
	if c.r.Intn(10) > 0 {
		w[cLbl] = mq.Str([]string{"red", "green", "blue"}[w[cNum].AsInt()*3/100])
	}
	return w
}

// where draws an AND/OR/NOT tree of comparisons and IN lists on t's
// columns and, about half the time, on js's predictions.
func (c *check) where(js []join, depth int) pred {
	if depth == 0 || c.r.Intn(3) == 0 {
		cand := []int{cCat, cNum, cX, cX, cLbl}
		for k := range js {
			cand = append(cand, 5+k, 5+k)
		}
		o := cand[c.r.Intn(len(cand))]
		col, a, b, op := names([]int{o}, js)[0], c.literal(o, js), c.literal(o, js), ops[c.r.Intn(len(ops))]
		if c.r.Intn(5) == 0 {
			return pred{fmt.Sprintf("%s IN (%s, %s)", col, sqlOf(a), sqlOf(b)), func(e mq.Tuple) bool {
				return refOrder(e[o], a) == 0 || refOrder(e[o], b) == 0
			}}
		}
		return pred{col + " " + op.sql + " " + sqlOf(a), func(e mq.Tuple) bool { return op.holds(refOrder(e[o], a)) }}
	}
	kids := make([]pred, 2+c.r.Intn(2))
	sqls := make([]string, len(kids))
	for i := range kids {
		kids[i] = c.where(js, depth-1)
		sqls[i] = kids[i].sql
	}
	and, op := c.r.Intn(2) == 0, " OR "
	if and {
		op = " AND "
	}
	p := pred{"(" + strings.Join(sqls, op) + ")", func(e mq.Tuple) bool {
		for _, k := range kids {
			if k.ok(e) != and {
				return !and
			}
		}
		return and
	}}
	if c.r.Intn(6) == 0 {
		return pred{"NOT " + p.sql, func(e mq.Tuple) bool { return !p.ok(e) }}
	}
	return p
}

// query draws a read — a SELECT or, with agg, an aggregate — or, with
// sub, a subscription, over 0–2 distinct models PREDICTION JOINed on all
// their inputs. A SELECT lists * (t's columns, then the predictions) or
// named columns, x in most so NaN and −0.0 reach answers; an aggregate
// groups on data and predicted columns and takes COUNT, MIN and MAX over
// every column, SUM and AVG over the INT ones.
func (c *check) query(agg, sub bool) query {
	models := make([]string, 0, len(c.ref.models))
	for name := range c.ref.models {
		models = append(models, name)
	}
	sort.Strings(models)
	c.r.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	var js []join
	from, all := " FROM t", []int{cID, cCat, cNum, cX, cLbl}
	for k, name := range models[:min(c.r.Intn(3), len(models))] {
		md, alias := c.ref.models[name], fmt.Sprintf("j%d", k)
		js, all = append(js, join{name, alias + "." + md.predict, md.m.Classes()}), append(all, 5+k)
		var on []string
		for _, in := range md.m.InputColumns() {
			on = append(on, fmt.Sprintf("%s.%s = t.%s", alias, in, in))
		}
		from += fmt.Sprintf(" PREDICTION JOIN %s AS %s ON %s", name, alias, strings.Join(on, " AND "))
	}
	plain := [][]int{all, {cID, cX}, {cID, cCat, cNum, cLbl}, append([]int{cX}, all[5:]...), append([]int{cID, cX}, all[5:]...)}[c.r.Intn(5)]
	var fns []string
	var args []int // -1: COUNT(*)
	if agg {
		plain = slices.Clone(all[1:])
		c.r.Shuffle(len(plain), func(i, j int) { plain[i], plain[j] = plain[j], plain[i] })
		plain = plain[:c.r.Intn(3)]
	}
	items := names(plain, js)
	for n := 1 + c.r.Intn(3); agg && len(fns) < n; {
		fn, o, arg := []string{"count", "min", "max", "sum", "avg"}[c.r.Intn(5)], all[c.r.Intn(len(all))], "*"
		if fn == "sum" || fn == "avg" {
			o = []int{cID, cNum}[c.r.Intn(2)]
		} else if fn == "count" && c.r.Intn(2) == 0 {
			o = -1
		}
		if o >= 0 {
			arg = names([]int{o}, js)[0]
		}
		if item := fn + "(" + arg + ")"; !slices.Contains(items, item) {
			items, fns, args = append(items, item), append(fns, fn), append(args, o)
		}
	}
	q := query{sql: "SELECT " + strings.Join(items, ", "), limit: -1, grouped: agg && len(plain) > 0, ungrouped: agg && len(plain) == 0, cols: items}
	if !agg && len(plain) == len(all) {
		if q.sql = "SELECT *"; sub { // a notification carries t's columns only
			plain, q.cols = plain[:len(tCols)], items[:len(tCols)]
		}
	}
	w := pred{"", func(mq.Tuple) bool { return true }}
	if q.sql += from; !agg || c.r.Intn(4) > 0 {
		w = c.where(js, 2)
		q.sql += " WHERE " + w.sql
	}
	if q.grouped {
		q.sql += " GROUP BY " + strings.Join(items[:len(plain)], ", ")
	}
	if !sub && c.r.Intn(6) == 0 {
		q.limit = int64(1 + c.r.Intn(10))
		q.sql += fmt.Sprintf(" LIMIT %d", q.limit)
	}
	q.match = func(r *ref, rows []mq.Tuple) (out []mq.Tuple) {
		groups := map[string][]mq.Tuple{}
		for _, e := range r.extend(rows, js) {
			if key := project(e, plain); w.ok(e) && !agg {
				out = append(out, key)
			} else if w.ok(e) {
				for i := range key {
					key[i] = canon(key[i])
				}
				if groups[keysOf(key)[0]] == nil {
					out = append(out, key)
				}
				groups[keysOf(key)[0]] = append(groups[keysOf(key)[0]], e)
			}
		}
		if q.ungrouped && len(out) == 0 {
			out = []mq.Tuple{{}} // one row, even over none
		}
		slices.SortFunc(out, func(a, b mq.Tuple) int {
			for i := range a {
				if c := refOrder(a[i], b[i]); c != 0 && agg {
					return c
				}
			}
			return 0
		})
		for i, key := range out {
			for k, fn := range fns {
				out[i] = append(out[i], aggregate(fn, args[k], groups[keysOf(key)[0]]))
			}
		}
		return out
	}
	return q
}

// aggregate computes fn over column o (-1: COUNT(*)) of a group.
func aggregate(fn string, o int, rows []mq.Tuple) mq.Value {
	var sum int64
	best := mq.Null()
	for _, e := range rows {
		switch {
		case o < 0:
		case fn == "sum" || fn == "avg":
			sum += e[o].AsInt()
		case best.IsNull(), fn == "min" && refOrder(e[o], best) < 0, fn == "max" && refOrder(e[o], best) > 0:
			best = e[o]
		}
	}
	switch {
	case fn == "count":
		return mq.Int(int64(len(rows)))
	case len(rows) == 0:
		return mq.Null()
	case fn == "sum":
		return mq.Int(sum)
	case fn == "avg":
		return mq.Float(float64(sum) / float64(len(rows)))
	}
	return canon(best)
}

// dml draws an INSERT, an UPDATE — of the partition column too — or a
// DELETE of one category's rows, so deletes do not outrun inserts. UPDATE
// and DELETE spare the first 8 seed rows, one per category: naive Bayes
// envelopes are sound over the trained domain only (core.dimPredicate),
// so every category stays in t.
func (c *check) dml() stmt {
	k, spare := c.r.Intn(10), c.where(nil, 1)
	w := pred{"id > 8 AND " + spare.sql, func(e mq.Tuple) bool { return e[cID].AsInt() > 8 && spare.ok(e) }}
	switch {
	case k < 5:
		rows := make([]mq.Tuple, 1+c.r.Intn(4))
		for i := range rows {
			rows[i] = c.newRow(false)
		}
		return c.insertOf(rows)
	case k < 8:
		set, sets := map[int]mq.Value{}, []string{}
		for _, o := range []int{cNum, cX, cLbl, cCat} {
			if len(set) == 0 || c.r.Intn(3) == 0 {
				set[o] = c.literal(o, nil)
				sets = append(sets, tCols[o]+" = "+sqlOf(set[o]))
			}
		}
		return stmt{sql: "UPDATE t SET " + strings.Join(sets, ", ") + " WHERE " + w.sql, apply: func(r *ref) (int64, []mq.Tuple, error) {
			victims := r.take(w)
			for i := range victims {
				victims[i] = slices.Clone(victims[i])
				for o, v := range set {
					victims[i][o] = v
				}
			}
			r.insert(victims...)
			return int64(len(victims)), victims, nil
		}}
	}
	cat, inner := c.literal(cCat, nil), w
	w = pred{"cat = " + sqlOf(cat) + " AND " + inner.sql, func(e mq.Tuple) bool { return e[cCat] == cat && inner.ok(e) }}
	return stmt{sql: "DELETE FROM t WHERE " + w.sql, apply: func(r *ref) (int64, []mq.Tuple, error) {
		return int64(len(r.take(w))), nil, nil
	}}
}

// insertOf is an INSERT of rows, naming its columns or not.
func (c *check) insertOf(rows []mq.Tuple) stmt {
	vals := make([]string, len(rows))
	for i, w := range rows {
		vals[i] = fmt.Sprintf("(%s, %s, %s, %s, %s)", sqlOf(w[0]), sqlOf(w[1]), sqlOf(w[2]), sqlOf(w[3]), sqlOf(w[4]))
	}
	cols := []string{" (id, cat, num, x, lbl)", ""}[c.r.Intn(2)]
	return stmt{sql: "INSERT INTO t" + cols + " VALUES " + strings.Join(vals, ", "), apply: func(r *ref) (int64, []mq.Tuple, error) {
		r.insert(rows...)
		return int64(len(rows)), rows, nil
	}}
}

// families is the CREATE MODEL pool: name, family, predicted column and
// view (nil: every other column, as without AS SELECT).
var families = []struct {
	name, family, predict string
	feats                 []int
}{
	{"m_dt", "dtree", "lbl", []int{cNum}}, {"m_nb", "nbayes", "lbl", []int{cCat}},
	{"m_rl", "rules", "lbl", []int{cCat, cNum}}, {"m_km", "kmeans", "grp", []int{cNum}},
	{"m_gm", "gmm", "grp", []int{cNum}}, {"m_all", "dtree", "lbl", nil},
}

// createModel draws a CREATE MODEL of families[i], half the time with a
// WHERE — never for naive Bayes, which must see every category (see dml).
func (c *check) createModel(i int) stmt {
	f := families[i]
	md := &refModel{family: f.family, predict: f.predict, feats: f.feats}
	sql, view := fmt.Sprintf("CREATE MODEL %s ON t PREDICT %s USING %s", f.name, f.predict, f.family), "*"
	if f.feats == nil {
		md.feats = []int{cID, cCat, cNum, cX}
	} else if view = strings.Join(names(f.feats, nil), ", "); f.predict == "lbl" {
		view += ", lbl" // the label is in the view, never a feature
	}
	if f.family != "nbayes" && c.r.Intn(2) == 0 {
		w := c.where(nil, 1)
		md.where, sql = w.ok, sql+" AS SELECT "+view+" FROM t WHERE "+w.sql
	} else if f.feats != nil {
		sql += " AS SELECT " + view + " FROM t"
	}
	return stmt{sql: sql, model: true, apply: func(r *ref) (int64, []mq.Tuple, error) {
		def := *md
		m, fp, err := r.fit(f.name, &def)
		if err != nil {
			return 0, nil, err
		}
		def.m, def.fp, def.version = m, fp, 1
		if prev := r.models[f.name]; prev != nil {
			def.version = prev.version + 1
		} else {
			r.order = append(r.order, f.name)
		}
		r.models[f.name] = &def
		r.epoch++
		return 0, nil, nil
	}}
}

// ---- comparing ----

// keysOf renders rows, kinds included, for comparison.
func keysOf(rows ...mq.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] += fmt.Sprintf("%d:%s|", v.Kind(), v)
		}
	}
	return out
}

// differ reports how an answer differs from the reference's: in order,
// or as multisets; under a LIMIT, as a prefix or a sub-multiset of its size.
func differ(got, want []string, ordered bool, limit int64) string {
	if !ordered {
		got, want = slices.Clone(got), slices.Clone(want)
		sort.Strings(got)
		sort.Strings(want)
	}
	if cut := limit >= 0 && int64(len(want)) > limit; cut && ordered {
		want = want[:limit]
	} else if cut && int64(len(got)) == limit {
		left := map[string]int{}
		for _, k := range want {
			left[k]++
		}
		for _, k := range got {
			if left[k]--; left[k] < 0 {
				return "a row the reference does not answer: " + k
			}
		}
		return ""
	}
	if slices.Equal(got, want) {
		return ""
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%d rows, the reference %d; from row %d: %v against %v",
		len(got), len(want), i, got[i:min(i+2, len(got))], want[i:min(i+2, len(want))])
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---- the run ----

// The read consumers.
const (
	adHoc = iota
	preparedLater
	scribbled
	overWire
)

var modeNames = []string{"Query", "Prepare … Execute later", "ExecuteInto a scribbling sink", "/v1/execute"}

var ctx = context.Background()

type check struct {
	t                *testing.T
	layout           string
	mix              mix
	seed, nextID     int64
	r                *rand.Rand
	ref              *ref
	seedRows         []mq.Tuple
	bounds           []mq.Value
	eng              *mq.Engine
	dev              *mq.MemWALDevice
	srv              http.Handler
	matches          int64 // notifications the engine raised since boot
	step, dop        int
	armed, recovered bool // a WAL kill is armed; the engine came from a crash
	// prepared runs at step due, stale iff the catalog moved since epoch.
	prepared   *mq.Prepared
	pending    query
	epoch, due int64
	log        []string
	cov        map[string]int
}

func (c *check) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s/seed=%d step %d (DOP %d, sidecar %v): %s\nstatements since the last restart:\n  %s",
		c.layout, c.seed, c.step, c.dop, c.ref.columnar && c.ref.fresh, fmt.Sprintf(format, args...), strings.Join(c.log, "\n  "))
}

func (c *check) logf(format string, args ...any) {
	c.log = append(c.log, fmt.Sprintf("%d: ", c.step)+fmt.Sprintf(format, args...))
}

func (c *check) must(err error) {
	c.t.Helper()
	if err != nil {
		c.fatalf("%v", err)
	}
}

// A shape sizes a run: its steps, the mix they are drawn from, its seed
// rows, and the families it first creates models of (at least two).
type shape struct {
	steps int
	mix   mix
	rows  int
	first int
}

// runModelCheck runs a run of shape s over a layout: plain, partitioned,
// or columnar — plain with the sidecar enabled from the start.
func runModelCheck(t *testing.T, layout string, seed int64, s shape) map[string]int {
	c := &check{t: t, layout: layout, mix: s.mix, seed: seed, r: rand.New(rand.NewSource(seed)), dop: 1, cov: map[string]int{}}
	c.ref = &ref{partOrd: -1, parts: make([][]mq.Tuple, 1), models: map[string]*refModel{}, subs: map[int64]query{}}
	c.ref.thr = int64(20 + c.r.Intn(40))
	if layout == "partitioned" { // on x, sometimes at a NaN cut, or on num, some cuts past the data
		c.ref.partOrd, c.ref.bounds = cX, []float64{math.NaN(), -5, -1, 0, 0.5, 2, 4.5, 8, 20}
		if seed%2 == 0 {
			c.ref.partOrd, c.ref.bounds = cNum, []float64{0, 7, 14, 21, 28, 35, 49, 63, 70, 84, 98, 105, 126}
		}
		c.r.Shuffle(len(c.ref.bounds), func(i, j int) { c.ref.bounds[i], c.ref.bounds[j] = c.ref.bounds[j], c.ref.bounds[i] })
		c.ref.bounds = c.ref.bounds[:2+c.r.Intn(4)]
		slices.SortFunc(c.ref.bounds, cmp.Compare[float64])
		c.ref.parts = make([][]mq.Tuple, len(c.ref.bounds)+1)
		for _, b := range c.ref.bounds {
			v := mq.Float(b)
			if c.ref.partOrd == cNum {
				v = mq.Int(int64(b))
			}
			c.bounds = append(c.bounds, v)
		}
	}
	for i := 0; i < s.rows; i++ {
		w := c.newRow(true)
		if i < 8 { // one row of each category, which DML spares
			w[cCat] = mq.Str(fmt.Sprintf("c%d", i))
		}
		c.seedRows = append(c.seedRows, w)
	}
	c.ref.insert(c.seedRows...)
	c.boot(nil)
	for i := range s.first {
		c.write(c.createModel(i))
	}
	if layout == "columnar" {
		c.enableColumnar()
	}
	for c.step = 1; c.step <= s.steps; c.step++ {
		if c.prepared != nil && int64(c.step) >= c.due {
			c.runPrepared()
		}
		if s.mix[9] > 0 && c.step%(s.steps/3) == 0 {
			c.arm()
		}
		c.stepOnce()
	}
	if st := c.eng.StandingStats(); st.Dropped != 0 {
		c.fatalf("the standing set dropped %d notifications", st.Dropped)
	}
	return c.cov
}

// boot builds an engine as every incarnation starts — seed rows,
// indexes, statistics, retrain threshold — and replays img into its WAL.
func (c *check) boot(img []byte) {
	// One-page morsels and small batches: at DOP 4 even this small table
	// fans out, and an answer spans batches the engine must not reuse.
	cfg := mq.Config{StandingQueue: 1 << 14}
	cfg.Exec.MorselPages, cfg.Exec.BatchSize = 1, 64
	eng := mq.NewWithConfig(cfg)
	if c.ref.partOrd < 0 {
		c.must(eng.CreateTable("t", tSchema()))
	} else {
		c.must(eng.CreatePartitionedTable("t", tSchema(), tCols[c.ref.partOrd], c.bounds))
	}
	c.must(eng.InsertBatch("t", c.seedRows))
	for _, col := range []string{"x", "cat", "num"} {
		c.must(eng.CreateIndex("ix_"+col, "t", col))
	}
	c.must(eng.Analyze("t"))
	eng.SetRetrainPolicy(mq.RetrainPolicy{WriteThreshold: c.ref.thr})
	eng.SetDOP(c.dop)
	c.dev = mq.NewMemWALDeviceFrom(img)
	_, err := eng.EnableWAL(c.dev)
	c.must(err)
	c.eng, c.srv, c.matches = eng, server.New(eng, server.Config{}).Handler(), 0
}

func (c *check) stepOnce() {
	var w mix // c.mix, cumulative
	for i, n := range c.mix {
		w[i] = n
		if i > 0 {
			w[i] += w[i-1]
		}
	}
	switch k := c.r.Intn(w[10]); {
	case k < w[0]:
		c.read(c.query(false, false))
	case k < w[1]:
		c.read(c.query(true, false))
	case k < w[2]:
		c.write(c.dml())
	case k < w[3]:
		c.write(c.createModel(c.r.Intn(len(families))))
	case k < w[4] && len(c.ref.subs) < 4:
		q := c.query(false, true)
		c.logf("Subscribe(%s)", q.sql)
		id, err := c.eng.Subscribe(q.sql)
		c.must(err)
		c.ref.subs[id] = q
	case k < w[5] && len(c.ref.subs) > 0: // the oldest goes
		id := int64(math.MaxInt64)
		for k := range c.ref.subs {
			id = min(id, k)
		}
		c.logf("Unsubscribe(%d)", id)
		c.must(c.eng.Unsubscribe(id))
		delete(c.ref.subs, id)
	case k < w[6]:
		c.dop = 5 - c.dop
		c.logf("SetDOP(%d)", c.dop)
		c.eng.SetDOP(c.dop)
	case k < w[7] && !c.ref.columnar:
		c.enableColumnar()
	case k < w[8]:
		c.logf("Analyze(t)")
		c.must(c.eng.Analyze("t"))
		c.ref.epoch++
		c.ref.rebuilt = c.ref.rebuilt || (c.ref.columnar && !c.ref.fresh)
		c.ref.fresh = c.ref.columnar
	case k < w[9] || c.armed: // an armed WAL kill stays the only injector
		c.arm()
	default:
		c.readUnderCompaction()
	}
}

func (c *check) enableColumnar() {
	c.logf("EnableColumnar(t)")
	c.must(c.eng.EnableColumnar("t"))
	c.ref.epoch++
	c.ref.columnar, c.ref.fresh = true, true
}

// arm kills the WAL at a random append or fsync among the next few.
func (c *check) arm() {
	if !c.armed {
		site, hit := []string{mq.FaultSiteWALAppend, mq.FaultSiteWALSync}[c.r.Intn(2)], int64(1+c.r.Intn(3))
		c.logf("arm a WAL kill at %s hit %d", site, hit)
		c.eng.SetFaults(mq.NewFaultInjector(c.seed, mq.FaultRule{Site: site, OnHit: hit, Err: mq.ErrWALCrash}))
		c.armed = true
	}
}

// write runs st on engine and reference and compares the error, rows
// affected, retrains, notifications, the table and the models.
func (c *check) write(st stmt) {
	c.logf("%s", st.sql)
	recompiles := c.eng.StandingStats().Recompiles
	res, err := c.eng.Exec(ctx, st.sql)
	if errors.Is(err, mq.ErrWALCrash) {
		c.crash(st)
		return
	}
	notes, ok := c.agree(st, res, err)
	if !ok {
		return
	}
	c.settle(notes, recompiles)
}

// agree applies st to the reference and compares what the engine's Exec
// of it returned: the error, rows affected and retrains. It returns the
// notifications the reference raised, and false for a CREATE MODEL that
// trains on neither side.
func (c *check) agree(st stmt, res *mq.ExecResult, err error) ([]string, bool) {
	n, notes, retrained, ferr, retrainErr := c.ref.exec(st)
	switch {
	case ferr != nil && err == nil:
		c.fatalf("%s succeeded; the reference's training failed: %v", st.sql, ferr)
	case ferr != nil:
		return nil, false
	case retrainErr != nil && !errors.Is(err, mq.ErrRetrainFailed), retrainErr == nil && err != nil:
		c.fatalf("%s: %v; the reference's retrain failed with %v", st.sql, err, retrainErr)
	case !st.model && (res.RowsAffected != n || !slices.Equal(res.Retrained, retrained)):
		c.fatalf("%s: %d rows affected, %v retrained; the reference %d, %v", st.sql, res.RowsAffected, res.Retrained, n, retrained)
	}
	c.cov["retrain"] += len(retrained)
	return notes, true
}

// settle takes the notifications writes raised, counts the standing
// recompiles since recompiles, and compares the table and the models.
func (c *check) settle(notes []string, recompiles int64) {
	c.cov["standing recompile"] += int(c.eng.StandingStats().Recompiles - recompiles)
	c.drain(notes)
	if d := differ(c.state(), c.refState(), false, -1); d != "" {
		c.fatalf("the table and the models: %s", d)
	}
}

// readUnderCompaction runs a read at DOP 1 whose first page read — a
// scan's, or an index seek's row fetch — commits a neutral pair of
// writes: an INSERT of more rows than a page holds, all alike but for
// their ids so they land in one partition and open a new tail page
// there, which compacts the pages earlier writes left mostly dead; then
// a DELETE of exactly those rows. The read must answer as it would have
// before the pair, from pages swapped under it, and the pair must agree
// with the reference like any write.
func (c *check) readUnderCompaction() {
	q := c.query(false, false)
	rows := []mq.Tuple{c.newRow(false)}
	for len(rows) < 200 {
		c.nextID++
		w := slices.Clone(rows[0])
		w[cID] = mq.Int(c.nextID)
		rows = append(rows, w)
	}
	lo, hi := rows[0][cID].AsInt(), c.nextID
	gone := pred{fmt.Sprintf("id >= %d AND id <= %d", lo, hi), func(w mq.Tuple) bool {
		return w[cID].AsInt() >= lo && w[cID].AsInt() <= hi
	}}
	pair := []stmt{c.insertOf(rows), {sql: "DELETE FROM t WHERE " + gone.sql, apply: func(r *ref) (int64, []mq.Tuple, error) {
		return int64(len(r.take(gone))), nil, nil
	}}}
	recompiles := c.eng.StandingStats().Recompiles
	var (
		res         [2]*mq.ExecResult
		errs        [2]error
		under       string
		compactions int64
		fired       atomic.Bool
		inj         *mq.FaultInjector
	)
	inj = mq.NewFaultInjector(c.seed,
		mq.FaultRule{Site: mq.FaultSitePageReadSeq, EveryN: 1, Delay: time.Nanosecond},
		mq.FaultRule{Site: mq.FaultSitePageReadRand, EveryN: 1, Delay: time.Nanosecond},
	).WithClock(pageHook{mq.NewFakeClock(), func() {
		if fired.Swap(true) {
			return // a later page, or one the pair itself reads
		}
		under = []string{"a scan", "an index seek"}[b2i(inj.Hits(mq.FaultSitePageReadRand) > 0)]
		compactions = mq.TableSpace(c.eng, "t").Compactions
		for i, st := range pair {
			res[i], errs[i] = c.eng.Exec(ctx, st.sql)
		}
		compactions = mq.TableSpace(c.eng, "t").Compactions - compactions
	}})
	c.logf("%s [DOP 1; at its first page read, INSERT of ids %d..%d, then %s]", q.sql, lo, hi, pair[1].sql)
	want := keysOf(q.match(c.ref, c.ref.rows())...)
	c.eng.SetFaults(inj)
	got, err := c.eng.Query(ctx, q.sql, mq.WithDOP(1))
	c.eng.SetFaults(nil)
	if err != nil {
		c.fatalf("%s under writes: %v", q.sql, err)
	}
	if d := differ(keysOf(got.Rows...), want, q.grouped, q.limit); d != "" {
		c.fatalf("%s with pages compacted under %s (path %s, storage %s): %s", q.sql, under, got.AccessPath, got.StorageFormat, d)
	}
	if !fired.Load() {
		return // a columnar read, or one that read no page
	}
	var notes []string
	for i, st := range pair {
		n, _ := c.agree(st, res[i], errs[i])
		notes = append(notes, n...)
	}
	c.settle(notes, recompiles)
	c.cov["compaction under "+under] += b2i(compactions > 0)
}

// pageHook is a fault clock whose injected latency runs a callback on
// the reading goroutine: a Delay rule at a page-read site calls it once
// per page read, before any record of the page is delivered.
type pageHook struct {
	mq.Clock
	sleep func()
}

func (c pageHook) Sleep(time.Duration) { c.sleep() }

// state is the engine's table and models; refState the reference's.
func (c *check) state() []string {
	res, err := c.eng.Query(ctx, "SELECT * FROM t")
	c.must(err)
	out := keysOf(res.Rows...)
	for _, s := range c.eng.ModelSummaries() {
		out = append(out, fmt.Sprintf("model %s v%d %s", s.Name, s.Version, s.Fingerprint))
	}
	return out
}

func (c *check) refState() []string {
	out := keysOf(c.ref.rows()...)
	for name, md := range c.ref.models {
		out = append(out, fmt.Sprintf("model %s v%d %s", name, md.version, md.fp))
	}
	return out
}

// drain takes as many notifications as the reference expects; the
// standing set must have raised no more.
func (c *check) drain(want []string) {
	deadline, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var got []string
	for len(got) < len(want) {
		ns, err := c.eng.Notifications(deadline, 1<<14)
		if err != nil {
			c.fatalf("%d notifications, the reference expects %d: %v", len(got), len(want), err)
		}
		for _, n := range ns {
			got = append(got, fmt.Sprintf("sub=%d|%s|%s", n.SubID, strings.Join(n.Columns, ","), keysOf(n.Row)[0]))
		}
	}
	c.matches += int64(len(want))
	if st := c.eng.StandingStats(); st.Matches != c.matches || st.Dropped != 0 {
		c.fatalf("the standing set raised %d notifications (%d dropped), the reference %d", st.Matches, st.Dropped, c.matches)
	}
	if d := differ(got, want, false, -1); d != "" {
		c.fatalf("notifications: %s", d)
	}
	c.cov["notification"] += len(want)
}

// crash recovers from the WAL kill that failed st: a fresh engine
// replays the synced log and a random prefix of the rest — the tail
// survives whole (the frame reached the disk, its ack did not), torn, or
// not at all — and must hold the acked state, or the acked state and st.
func (c *check) crash(st stmt) {
	if dropped := c.eng.StandingStats().Dropped; dropped != 0 {
		c.fatalf("the standing set dropped %d notifications", dropped)
	}
	keep, p := 0, c.dev.PendingLen()
	switch k := c.r.Intn(3); {
	case p == 0:
	case k == 0:
		keep = p
	case k == 1:
		keep = 1 + c.r.Intn(p)
		c.cov["torn tail"] += b2i(keep < p)
	}
	c.logf("crash, keeping %d of %d unsynced bytes", keep, p)
	space := mq.TableSpace(c.eng, "t")
	c.boot(c.dev.CrashImage(keep))
	got := c.state()
	if d := differ(got, c.refState(), false, -1); d == "" {
		c.cov["recovered acked"]++
		// Replay is the same mutation sequence, so it compacts the same
		// pages at the same points.
		if rec := mq.TableSpace(c.eng, "t"); rec != space {
			c.fatalf("the recovered heap holds %+v, the engine it replays %+v", rec, space)
		}
	} else if c.ref.exec(st); differ(got, c.refState(), false, -1) == "" {
		c.cov["recovered acked+pending"]++
	} else {
		c.fatalf("the recovered state is neither the acked state nor acked + %s; against the acked state: %s", st.sql, d)
	}
	c.cov["second crash cycle"] += b2i(c.recovered)
	// Subscriptions are not durable, prepared plans die with their engine,
	// and a new engine has no sidecar until asked.
	c.ref.subs, c.prepared, c.armed, c.recovered, c.log = map[int64]query{}, nil, false, true, nil
	c.ref.columnar, c.ref.fresh, c.ref.rebuilt = false, false, false
}

// read runs q through one of the four consumers; a prepared one waits
// some steps, one at a time.
func (c *check) read(q query) {
	mode := c.r.Intn(4)
	if mode == preparedLater && c.prepared == nil {
		c.logf("Prepare(%s)", q.sql)
		p, err := c.eng.Prepare(q.sql)
		c.must(err)
		c.prepared, c.pending, c.epoch, c.due = p, q, c.ref.epoch, int64(c.step+1+c.r.Intn(5))
		return
	}
	if mode == preparedLater {
		mode = adHoc
	}
	c.run(q, mode, nil)
}

// runPrepared executes the waiting prepared read.
func (c *check) runPrepared() {
	p := c.prepared
	c.prepared = nil
	if c.epoch == c.ref.epoch {
		c.run(c.pending, preparedLater, p)
		return
	}
	c.logf("Execute(%s) after a catalog change", c.pending.sql)
	if _, err := p.Execute(ctx); !errors.Is(err, mq.ErrStalePlan) {
		c.fatalf("a plan prepared before a catalog change executed with %v, want ErrStalePlan", err)
	}
	c.cov["stale plan"]++
}

// scribbler is a RowSink that copies each batch, then poisons it for an
// engine that reads it again.
type scribbler struct{ rows []mq.Tuple }

func (s *scribbler) Begin() { s.rows = s.rows[:0] }

func (s *scribbler) Batch(b []mq.Tuple) error {
	poison := mq.Str("\x00scribbled")
	for i, row := range b {
		s.rows = append(s.rows, row.Clone())
		for j := range row {
			row[j] = poison
		}
		b[i] = mq.Tuple{poison}
	}
	return nil
}

// faults are the read-side injections: failing seeks without retries
// force the fallback; page faults are retried.
var faults = []struct {
	what  string
	rule  mq.FaultRule
	tries int
}{
	{"index seeks fail, no retries", mq.FaultRule{Site: mq.FaultSiteIndexSeek, EveryN: 1, Err: mq.ErrInjected}, 1},
	{"every 7th page read fails, retried", mq.FaultRule{Site: mq.FaultSitePageReadSeq, EveryN: 7, Err: mq.ErrInjected}, 3},
}

// run executes q through mode, under a fault half the time, and
// checks the answer and what the Result says of how it was reached.
func (c *check) run(q query, mode int, p *mq.Prepared) {
	want := q.match(c.ref, c.ref.rows())
	for _, v := range slices.Concat(want...) {
		if v.Kind() != mq.KindFloat {
			continue
		}
		f := v.AsFloat()
		c.cov["NaN in an answer"] += b2i(math.IsNaN(f))
		c.cov["-0.0 in an answer"] += b2i(f == 0 && math.Signbit(f))
		if mode == overWire && (math.IsNaN(f) || math.IsInf(f, 0)) {
			mode = adHoc // JSON has no NaN and no infinity
		}
	}
	fault := "no fault"
	if k := c.r.Intn(4); k < len(faults) && !c.armed { // an armed WAL kill stays the only injector
		fault = faults[k].what
		c.eng.SetFaults(mq.NewFaultInjector(c.seed, faults[k].rule))
		c.eng.SetRetryPolicy(mq.RetryPolicy{MaxAttempts: faults[k].tries})
		defer func() {
			c.eng.SetFaults(nil)
			c.eng.SetRetryPolicy(mq.DefaultRetryPolicy())
		}()
	}
	c.logf("%s [%s; %s]", q.sql, modeNames[mode], fault)
	var (
		res  *mq.Result
		err  error
		sink scribbler
		got  []string
	)
	wantKeys := keysOf(want...)
	switch mode {
	case adHoc:
		res, err = c.eng.Query(ctx, q.sql)
	case preparedLater:
		res, err = p.Execute(ctx)
	case scribbled:
		if p, err = c.eng.Prepare(q.sql); err == nil {
			if res, err = p.ExecuteInto(ctx, &sink); err == nil {
				res.Rows = sink.rows
			}
		}
	case overWire:
		got, res = c.overWire(q.sql)
		wantKeys = wireKeys(want)
	}
	if err != nil {
		c.fatalf("%s via %s: %v", q.sql, modeNames[mode], err)
	}
	if mode != overWire {
		got = keysOf(res.Rows...)
	}
	if d := differ(got, wantKeys, q.grouped, q.limit); d != "" {
		c.fatalf("%s via %s (path %s, storage %s, fallback %v, %s): %s", q.sql, modeNames[mode], res.AccessPath, res.StorageFormat, res.Fallback, fault, d)
	}
	if res.Fallback && fault == "no fault" {
		c.fatalf("%s fell back with no fault injected: %s", q.sql, res.FallbackReason)
	}
	c.cov["fallback"] += b2i(res.Fallback)
	c.cov["prepared read"] += b2i(mode == preparedLater)
	c.cov["ungrouped aggregate"] += b2i(q.ungrouped)
	c.cov["index path"] += b2i(strings.HasPrefix(res.AccessPath, "index"))
	if res.StorageFormat == "columnar" {
		if !c.ref.columnar || !c.ref.fresh {
			c.fatalf("%s ran on a sidecar the reference knows to be stale or absent", q.sql)
		}
		c.cov["columnar execution"]++
		c.cov["columnar after a sidecar rebuild"] += b2i(c.ref.rebuilt)
	}
	if parts := len(c.bounds) + b2i(len(c.bounds) > 0); mode != overWire && res.PartitionsTotal != parts {
		c.fatalf("%s: PartitionsTotal %d, want %d", q.sql, res.PartitionsTotal, parts)
	}
	c.cov["pruned partition"] += b2i(res.PartitionsPruned > 0)
}

// overWire runs sql through /v1/execute: rows as JSON, fallback, path.
func (c *check) overWire(sql string) ([]string, *mq.Result) {
	body, _ := json.Marshal(wire.ExecuteRequest{SQL: sql})
	rec := httptest.NewRecorder()
	c.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
	var resp wire.ExecuteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		c.fatalf("/v1/execute %s: %d %s", sql, rec.Code, rec.Body)
	}
	cells, err := resp.Rows.Cells()
	if err != nil {
		c.fatalf("/v1/execute %s: rows %s: %v", sql, resp.Rows.Encoded, err)
	}
	out := make([]string, len(cells))
	for i, row := range cells {
		b, _ := json.Marshal(row)
		out[i] = string(b)
	}
	return out, &mq.Result{Fallback: resp.Fallback, AccessPath: resp.AccessPath}
}

// wireKeys is rows as JSON arrays, as /v1/execute encodes them.
func wireKeys(rows []mq.Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		b, _ := wire.AppendRow(nil, row)
		out[i] = string(b)
	}
	return out
}

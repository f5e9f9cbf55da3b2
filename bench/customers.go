package main

// The single-node customers fixture and its two workloads. adhoc_plan
// and scan_row share one table, two models and one server on purpose:
// the first never scans and always plans, the second never plans and
// always scans, so a planner change and an executor change each have a
// workload that must move and one that must not.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"minequery"
	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/opt"
	"minequery/internal/server"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// node is one engine behind a server handler, plus the rows it was
// loaded with.
type node struct {
	eng  *minequery.Engine
	srv  *server.Server
	h    http.Handler
	rows []minequery.Tuple
	rec  *recorder
}

func newNode(eng *minequery.Engine, rows []minequery.Tuple) *node {
	srv := server.New(eng, server.Config{})
	return &node{eng: eng, srv: srv, h: srv.Handler(), rows: rows, rec: newRecorder()}
}

// phaseTimer collects the set-up phase metrics.
type phaseTimer map[string]float64

func (p phaseTimer) model(family string, mi *minequery.ModelInfo) {
	p["mining.train_ms."+family] += ms(mi.TrainTime)
	p["core.derive_ms"] += ms(mi.EnvelopeTime)
}

// finish derives the ratios once every phase is in.
func (p phaseTimer) finish() {
	if train := p["mining.train_ms.dtree"] + p["mining.train_ms.nbayes"]; train > 0 {
		p["core.derive_share"] = p["core.derive_ms"] / train
	}
}

// loadCustomers creates and fills the customers table and trains both
// models on it, recording phase timings.
func loadCustomers(eng *minequery.Engine, rows []minequery.Tuple, ph phaseTimer) error {
	if err := eng.CreateTable("customers", custSchema()); err != nil {
		return err
	}
	t := time.Now()
	if err := eng.InsertBatch("customers", rows); err != nil {
		return err
	}
	ph["storage.load_rows_per_s"] = float64(len(rows)) / time.Since(t).Seconds()
	mi, err := eng.TrainDecisionTree("riskmodel", "risk", "customers", []string{"age", "income"}, "risk", minequery.TreeOptions{})
	if err != nil {
		return err
	}
	ph.model("dtree", mi)
	mi, err = eng.TrainNaiveBayes("segmodel", "segment", "customers", []string{"visits", "tier"}, "segment", minequery.BayesOptions{})
	if err != nil {
		return err
	}
	ph.model("nbayes", mi)
	return nil
}

func newCustNode(seed int64, n int) (*node, phaseTimer, error) {
	ph := phaseTimer{}
	rows := genCustomers(rand.New(rand.NewSource(seed)), n)
	eng := minequery.New()
	eng.SetDOP(1)
	if err := loadCustomers(eng, rows, ph); err != nil {
		return nil, nil, err
	}
	if err := eng.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		return nil, nil, err
	}
	t := time.Now()
	if err := eng.Analyze("customers"); err != nil {
		return nil, nil, err
	}
	ph["catalog.analyze_ms"] = ms(time.Since(t))
	ph.finish()
	return newNode(eng, rows), ph, nil
}

func (c *node) close() {
	_ = c.srv.Shutdown(context.Background())
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Admission struct {
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	Prepared struct {
		Hits       int64 `json:"hits"`
		Misses     int64 `json:"misses"`
		Reprepares int64 `json:"reprepares"`
	} `json:"prepared"`
	EnvelopeCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"envelope_cache"`
}

func (c *node) stats() serverStats {
	var st serverStats
	if err := call(c.h, "GET", "/v1/stats", nil, &st); err != nil {
		panic(err) // the stats endpoint cannot fail on a live server
	}
	return st
}

func ratio(hit, miss int64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

// statsDelta reports the server counters of one pass.
func statsDelta(before, after serverStats, out map[string]float64) {
	out["server.prepared_hit_ratio"] = ratio(after.Prepared.Hits-before.Prepared.Hits,
		after.Prepared.Misses-before.Prepared.Misses+after.Prepared.Reprepares-before.Prepared.Reprepares)
	out["server.envcache_hit_ratio"] = ratio(after.EnvelopeCache.Hits-before.EnvelopeCache.Hits,
		after.EnvelopeCache.Misses-before.EnvelopeCache.Misses)
	out["server.rejected"] = float64(after.Admission.Rejected - before.Admission.Rejected)
}

// verifyAgainstBaseline runs sql through the handler and checks the
// rows against the engine's unoptimized evaluation: mining predicates as
// black-box filters over a forced sequential scan.
func (c *node) verifyAgainstBaseline(sql string, sum *checksum) error {
	var ans struct {
		Rows [][]any `json:"rows"`
	}
	if err := call(c.h, "POST", "/v1/execute", map[string]string{"sql": sql}, &ans); err != nil {
		return err
	}
	got, err := canonJSONRows(ans.Rows)
	if err != nil {
		return err
	}
	base, err := c.eng.Query(context.Background(), sql, minequery.WithBaseline(), minequery.WithForcedPath("seqscan"))
	if err != nil {
		return fmt.Errorf("baseline %q: %w", sql, err)
	}
	if err := sameRows(sql, got, canonTuples(base.Rows)); err != nil {
		return err
	}
	sum.add(got)
	return nil
}

// ---- adhoc_plan ----

// idBound keeps every ad-hoc text distinct without changing its answer:
// the appended "id < bound" is true for every row.
const idBound = 1_000_000_000

type adhocFx struct {
	node   *node
	tmpl   []string // one %d verb each: the id bound
	sqls   []string
	bodies [][]byte
	expect []int // row counts seen on the warm-up pass
	warm   bool
	before serverStats

	// traced passes only
	twinTab   *catalog.Table
	twinCat   *catalog.Catalog
	twinCache mapCache
	acc       execAcc
	disjuncts int
	respBytes int
}

// genAdhoc draws the op list: selective envelope predicates over the
// indexed age × income grid, so plans are index seeks, index unions and
// constant-scan proofs, and results stay under 100 rows. Every seed gets
// the same number of ops of each shape, in a seeded order with seeded
// constants, so that a seed does not change how much work a pass is.
func genAdhoc(r *rand.Rand, n int) []string {
	const head = `SELECT id, age, income FROM customers` + joinRisk + ` WHERE `
	shape := make([]int, n) // a percentile of the shape mix below
	for i := range shape {
		shape[i] = i * 100 / n
	}
	r.Shuffle(n, func(i, j int) { shape[i], shape[j] = shape[j], shape[i] })
	out := make([]string, n)
	for i, p := range shape {
		var pred string
		switch {
		case p < 20: // index seek: one age, the envelope's income range
			pred = fmt.Sprintf(`r.risk = 'high' AND customers.age = %d`, r.Intn(4))
		case p < 40:
			pred = fmt.Sprintf(`r.risk = 'elevated' AND customers.age = %d`, 60+r.Intn(20))
		case p < 60: // index union over an IN list
			a := r.Perm(20)[:3]
			pred = fmt.Sprintf(`r.risk = 'elevated' AND customers.age IN (%s) AND customers.income < %d`,
				sqlList([]int{60 + a[0], 60 + a[1], 60 + a[2]}), 2+r.Intn(6))
		case p < 68: // envelope contradicts the data predicate: proved empty
			pred = fmt.Sprintf(`r.risk = 'high' AND customers.age > %d`, 10+r.Intn(60))
		case p < 76: // label outside the model's class set: proved empty
			pred = fmt.Sprintf(`r.risk = 'class%d'`, r.Intn(1000))
		case p < 86: // envelope alone: an index range over the rare box.
			// The slowest shape, and 10% of the ops, so that p95 falls
			// inside its band and not on the edge between two shapes.
			pred = `r.risk = 'high'`
		default: // naive Bayes envelope on top of a point seek
			out[i] = `SELECT id, visits, tier FROM customers` + joinSeg +
				fmt.Sprintf(` WHERE s.segment = 'regular' AND customers.age = %d AND customers.income = %d`,
					r.Intn(ageDomain), r.Intn(incomeDomain)) + ` AND customers.id < %d`
			continue
		}
		out[i] = head + pred + ` AND customers.id < %d`
	}
	return out
}

func setupAdhoc(seed int64, sz sizes) (fixture, map[string]float64, error) {
	node, ph, err := newCustNode(seed, sz.custRows)
	if err != nil {
		return nil, nil, err
	}
	n := sz.adhocOps
	f := &adhocFx{
		node:   node,
		tmpl:   genAdhoc(rand.New(rand.NewSource(seed+1)), n),
		sqls:   make([]string, n),
		bodies: make([][]byte, n),
		expect: make([]int, n),
	}
	return f, ph, nil
}

func (f *adhocFx) opsPerPass() int { return len(f.tmpl) }
func (f *adhocFx) rows() int       { return len(f.node.rows) }
func (f *adhocFx) close()          { f.node.close() }

func (f *adhocFx) preparePass(k int) {
	for i, t := range f.tmpl {
		f.sqls[i] = fmt.Sprintf(t, idBound+k*len(f.tmpl)+i)
		f.bodies[i] = jsonBody("sql", f.sqls[i])
	}
	f.acc, f.disjuncts, f.respBytes = execAcc{}, 0, 0
	f.before = f.node.stats()
}

func (f *adhocFx) do(i int, tr *tracer) bool {
	id := tr.start("server.handler")
	serve(f.node.h, f.node.rec, "POST", "/v1/execute", f.bodies[i])
	tr.end(id)
	rec := f.node.rec
	if rec.code != http.StatusOK {
		return false
	}
	f.respBytes += rec.body.Len()
	n := rowCount(rec.body.Bytes())
	if !f.warm {
		f.expect[i] = n
		return n >= 0
	}
	return n == f.expect[i]
}

// mapCache is the twin catalog's envelope cache; only the load
// goroutine uses it.
type mapCache map[string]core.CachedEnvelope

func (c mapCache) Get(k string) (core.CachedEnvelope, bool) {
	ce, ok := c[k]
	return ce, ok
}

func (c mapCache) Put(k string, ce core.CachedEnvelope) { c[k] = ce }

// trainTwin fits a model on the given input and label columns of rows,
// derives its envelopes and registers both in a bench-owned catalog, the
// way the engine does behind TrainDecisionTree or CREATE MODEL.
func trainTwin(cat *catalog.Catalog, tab *catalog.Table, rows []minequery.Tuple, inputs []int, label int,
	fit func(ts *mining.TrainSet) (mining.Model, error)) error {
	cols := make([]value.Column, len(inputs))
	for i, o := range inputs {
		cols[i] = tab.Schema.Col(o)
	}
	ts := &mining.TrainSet{Schema: value.MustSchema(cols...)}
	for _, row := range rows {
		in := make(value.Tuple, len(inputs))
		for i, o := range inputs {
			in[i] = row[o]
		}
		ts.Rows = append(ts.Rows, in)
		ts.Labels = append(ts.Labels, row[label])
	}
	m, err := fit(ts)
	if err != nil {
		return err
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		return err
	}
	cat.RegisterModel(m, der.Envelopes)
	return nil
}

// twinCustomers builds a bench-owned catalog equal to the engine's —
// same rows, models, index and statistics — so the rewriter and the
// access-path chooser can be called and timed on their own.
func twinCustomers(rows []minequery.Tuple) (*catalog.Catalog, *catalog.Table, error) {
	cat := catalog.New()
	tab, err := cat.CreateTable("customers", custSchema())
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		if _, err := tab.Insert(row); err != nil {
			return nil, nil, err
		}
	}
	if err := trainTwin(cat, tab, rows, []int{1, 2}, 7, func(ts *mining.TrainSet) (mining.Model, error) {
		return dtree.Train("riskmodel", "risk", ts, dtree.Options{})
	}); err != nil {
		return nil, nil, err
	}
	if err := trainTwin(cat, tab, rows, []int{3, 4}, 6, func(ts *mining.TrainSet) (mining.Model, error) {
		return nbayes.Train("segmodel", "segment", ts, nbayes.Options{})
	}); err != nil {
		return nil, nil, err
	}
	if _, err := cat.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		return nil, nil, err
	}
	if _, err := cat.Analyze("customers"); err != nil {
		return nil, nil, err
	}
	return cat, tab, nil
}

func (f *adhocFx) enableTrace() error {
	var err error
	f.twinCat, f.twinTab, err = twinCustomers(f.node.rows)
	f.twinCache = mapCache{}
	return err
}

// twin repeats op i's planning and execution as direct calls into each
// layer, outside the op's own timing.
func (f *adhocFx) twin(i int, tr *tracer) {
	sql := f.sqls[i]
	cfg := opt.DefaultConfig()
	id := tr.start("sqlparse.normalize")
	_, _ = sqlparse.Normalize(sql)
	tr.end(id)
	id = tr.start("sqlparse.parse")
	q, err := sqlparse.Parse(sql)
	tr.end(id)
	if err != nil {
		return
	}
	id = tr.start("core.rewrite")
	rw, err := core.RewriteQueryCached(q, f.twinCat, cfg.MaxDisjuncts, f.twinCache)
	tr.end(id)
	if err != nil {
		return
	}
	id = tr.start("opt.choose")
	opt.ChooseAccessPath(f.twinTab, rw.DataPred, cfg)
	tr.end(id)
	f.disjuncts += disjunctsOf(rw.DataPred)
	id = tr.start("engine.prepare")
	p, err := f.node.eng.Prepare(sql)
	tr.end(id)
	if err != nil {
		return
	}
	id = tr.start("exec.execute")
	res, err := p.Execute(context.Background())
	tr.end(id)
	if err == nil {
		f.acc.add(res)
	}
}

// disjunctsOf counts the top-level disjuncts of a rewritten predicate.
func disjunctsOf(e expr.Expr) int {
	if or, ok := e.(expr.Or); ok {
		return len(or.Kids)
	}
	return 1
}

func (f *adhocFx) afterPass(k int, tr *tracer, ps *passStats, out map[string]float64) {
	f.warm = true
	n := float64(ps.ops)
	if tr == nil {
		statsDelta(f.before, f.node.stats(), out)
		out["server.resp_bytes_per_op"] = float64(f.respBytes) / n
		return
	}
	agg := tr.aggregate()
	mean := func(name string) float64 {
		if a := agg[name]; a != nil {
			return us(a.total) / n
		}
		return 0
	}
	out["server.handler_us"] = mean("server.handler")
	out["sqlparse.normalize_us"] = mean("sqlparse.normalize")
	out["sqlparse.parse_us"] = mean("sqlparse.parse")
	out["core.rewrite_us"] = mean("core.rewrite")
	out["opt.choose_us"] = mean("opt.choose")
	out["engine.prepare_us"] = mean("engine.prepare")
	out["exec.execute_us"] = mean("exec.execute")
	out["server.self_us"] = out["server.handler_us"] - out["engine.prepare_us"] - out["exec.execute_us"]
	out["core.envelope_disjuncts"] = float64(f.disjuncts) / n
	f.acc.report(out)
}

func (f *adhocFx) finish(out map[string]float64) error {
	if f.twinCat == nil {
		return nil
	}
	// Rejection attribution over a fixed sample of the op list.
	var env, all int64
	for i := 0; i < len(f.tmpl) && i < verifySample; i++ {
		res, err := f.node.eng.Query(context.Background(), fmt.Sprintf(f.tmpl[i], idBound-1-i), minequery.WithAnalyze())
		if err != nil {
			return err
		}
		e, a := rejectCounts(res)
		env, all = env+e, all+a
	}
	if all > 0 {
		out["exec.envelope_reject_ratio"] = float64(env) / float64(all)
	}
	return nil
}

// verifySample is how many ops of an ad-hoc op list are checked against
// the forced-seqscan baseline; each check scans the whole table.
const verifySample = 48

func (f *adhocFx) verify() (uint64, error) {
	var sum checksum
	for i := 0; i < len(f.tmpl) && i < verifySample; i++ {
		if err := f.node.verifyAgainstBaseline(fmt.Sprintf(f.tmpl[i], idBound-1-i), &sum); err != nil {
			return 0, err
		}
	}
	return sum.h, nil
}

func (f *adhocFx) shares(l map[string]float64) []layerShare {
	h := l["server.handler_us"]
	planOther := l["engine.prepare_us"] - l["sqlparse.parse_us"] - l["core.rewrite_us"] - l["opt.choose_us"]
	execOther := l["exec.execute_us"] - l["exec.scan_self_us"] - l["exec.filter_self_us"] - l["exec.predict_self_us"] - l["exec.agg_self_us"]
	return shareList(h, []layerShare{
		{"server", l["server.self_us"]},
		{"sqlparse", l["sqlparse.parse_us"]},
		{"core", l["core.rewrite_us"]},
		{"opt", l["opt.choose_us"]},
		{"exec.scan", l["exec.scan_self_us"]},
		{"exec.filter", l["exec.filter_self_us"]},
		{"exec.predict", l["exec.predict_self_us"]},
		{"exec.agg", l["exec.agg_self_us"]},
		{"exec.other", execOther},
		{"unaccounted", planOther},
	})
}

// shareList turns per-op layer times into shares of the op wall.
func shareList(wall float64, parts []layerShare) []layerShare {
	for i := range parts {
		if wall > 0 {
			parts[i].Share = parts[i].Share / wall
		} else {
			parts[i].Share = 0
		}
	}
	return parts
}

// ---- scan_row ----

// scanShape is one prepared statement of a scan workload.
type scanShape struct {
	name, sql string
	id        string // server statement id
	body      []byte
	want      int                 // row count of the verified answer
	direct    *minequery.Prepared // traced passes only
	// layerKey, when set, names the per-layer metric that reports this
	// shape's direct execution time on its own.
	layerKey string
	directT  time.Duration
	directN  int
}

type scanFx struct {
	node   *node
	shapes []*scanShape
	ops    int
	before serverStats

	acc       execAcc
	respBytes int
	tracing   bool
	// columnar marks the workload whose scans must run on the
	// column-group sidecar; colTime is the wall of the direct executions
	// that did.
	columnar bool
	colTime  time.Duration
}

// prepareShapes registers the shapes with the server.
func prepareShapes(h http.Handler, shapes []*scanShape) error {
	for _, s := range shapes {
		var ans struct {
			StatementID string `json:"statement_id"`
			AccessPath  string `json:"access_path"`
		}
		if err := call(h, "POST", "/v1/prepare", map[string]string{"sql": s.sql}, &ans); err != nil {
			return err
		}
		if ans.AccessPath != "seqscan" {
			return fmt.Errorf("shape %s planned as %s, want seqscan", s.name, ans.AccessPath)
		}
		s.id = ans.StatementID
		s.body = jsonBody("statement_id", s.id)
		s.want = -1
	}
	return nil
}

func setupScanRow(seed int64, sz sizes) (fixture, map[string]float64, error) {
	node, ph, err := newCustNode(seed, sz.custRows)
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(seed + 2))
	lo := r.Intn(incomeDomain - 32) // a 32-wide income window: the same share of the rows on every seed
	shapes := []*scanShape{
		{name: "rare_class", sql: `SELECT id, visits, tier FROM customers` + joinSeg + ` WHERE s.segment = 'vip'`},
		{name: "common_class", sql: `SELECT id, visits, income FROM customers` + joinSeg +
			fmt.Sprintf(` WHERE s.segment = 'budget' AND customers.income >= %d AND customers.income < %d`, lo, lo+32)},
		{name: "two_models", sql: `SELECT id, age, visits FROM customers` + joinSeg + joinRisk +
			` WHERE s.segment = 'budget' AND r.risk = 'elevated'`},
		{name: "group_by_predicted", sql: `SELECT s.segment, count(*), sum(income) FROM customers` + joinSeg + ` GROUP BY s.segment`},
	}
	if err := prepareShapes(node.h, shapes); err != nil {
		return nil, nil, err
	}
	return &scanFx{node: node, shapes: shapes, ops: sz.scanOps}, ph, nil
}

func (f *scanFx) opsPerPass() int { return f.ops }
func (f *scanFx) rows() int       { return len(f.node.rows) }
func (f *scanFx) close()          { f.node.close() }

func (f *scanFx) preparePass(int) {
	f.acc, f.respBytes, f.colTime = execAcc{}, 0, 0
	for _, s := range f.shapes {
		s.directT, s.directN = 0, 0
	}
	f.before = f.node.stats()
}

func (f *scanFx) do(i int, tr *tracer) bool {
	s := f.shapes[i%len(f.shapes)]
	id := tr.start("server.handler")
	serve(f.node.h, f.node.rec, "POST", "/v1/execute", s.body)
	tr.end(id)
	rec := f.node.rec
	if rec.code != http.StatusOK {
		return false
	}
	f.respBytes += rec.body.Len()
	n := rowCount(rec.body.Bytes())
	if s.want < 0 {
		s.want = n
	}
	return n == s.want && n >= 0
}

func (f *scanFx) enableTrace() error {
	for _, s := range f.shapes {
		p, err := f.node.eng.Prepare(s.sql)
		if err != nil {
			return err
		}
		s.direct = p
	}
	f.tracing = true
	return nil
}

func (f *scanFx) twin(i int, tr *tracer) {
	s := f.shapes[i%len(f.shapes)]
	t := time.Now()
	id := tr.start("exec.execute")
	res, err := s.direct.Execute(context.Background())
	tr.end(id)
	if err != nil {
		return
	}
	d := time.Since(t)
	s.directT, s.directN = s.directT+d, s.directN+1
	if res.StorageFormat == "columnar" {
		f.colTime += d
	}
	f.acc.add(res)
}

func (f *scanFx) afterPass(k int, tr *tracer, ps *passStats, out map[string]float64) {
	n := float64(ps.ops)
	if tr == nil {
		statsDelta(f.before, f.node.stats(), out)
		out["server.resp_bytes_per_op"] = float64(f.respBytes) / n
		return
	}
	agg := tr.aggregate()
	out["server.handler_us"] = us(agg["server.handler"].total) / n
	out["exec.execute_us"] = us(agg["exec.execute"].total) / n
	out["server.self_us"] = out["server.handler_us"] - out["exec.execute_us"]
	f.acc.report(out)
	for _, s := range f.shapes {
		if s.layerKey != "" && s.directN > 0 {
			out[s.layerKey] = us(s.directT) / float64(s.directN)
		}
	}
	if f.columnar && f.acc.n > 0 {
		out["vec.fallback_ratio"] = 1 - float64(f.acc.columnar)/float64(f.acc.n)
		if f.acc.colRows > 0 {
			out["vec.rows_per_us"] = float64(f.acc.colRows) / us(f.colTime)
			out["vec.term_evals_per_row"] = float64(f.acc.termEvals) / float64(f.acc.colRows)
		}
	}
}

func (f *scanFx) finish(out map[string]float64) error {
	if !f.tracing {
		return nil
	}
	var env, all int64
	for _, s := range f.shapes {
		res, err := s.direct.Execute(context.Background(), minequery.WithAnalyze())
		if err != nil {
			return err
		}
		e, a := rejectCounts(res)
		env, all = env+e, all+a
	}
	if all > 0 {
		out["exec.envelope_reject_ratio"] = float64(env) / float64(all)
	}
	return nil
}

func (f *scanFx) verify() (uint64, error) {
	var sum checksum
	for _, s := range f.shapes {
		if err := f.node.verifyAgainstBaseline(s.sql, &sum); err != nil {
			return 0, err
		}
	}
	return sum.h, nil
}

func (f *scanFx) shares(l map[string]float64) []layerShare {
	h := l["server.handler_us"]
	execOther := l["exec.execute_us"] - l["exec.scan_self_us"] - l["exec.filter_self_us"] - l["exec.predict_self_us"] - l["exec.agg_self_us"]
	if f.columnar {
		// The vectorized path fuses the scan into the filter operator.
		return shareList(h, []layerShare{
			{"server", l["server.self_us"]},
			{"exec.vec", l["exec.scan_self_us"] + l["exec.filter_self_us"]},
			{"exec.predict", l["exec.predict_self_us"]},
			{"exec.agg", l["exec.agg_self_us"]},
			{"unaccounted", execOther},
		})
	}
	return shareList(h, []layerShare{
		{"server", l["server.self_us"]},
		{"exec.scan", l["exec.scan_self_us"]},
		{"exec.filter", l["exec.filter_self_us"]},
		{"exec.predict", l["exec.predict_self_us"]},
		{"exec.agg", l["exec.agg_self_us"]},
		{"unaccounted", execOther},
	})
}

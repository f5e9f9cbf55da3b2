package main

// cluster_read: two shard servers and a coordinator in one process, the
// customers table range-sharded on income. It is the only workload
// where plan → prune → fan-out → slowest shard → merge and the wire
// format run. Shard hops go through an in-process http.RoundTripper
// that calls the shard's handler directly: the coordinator's client
// code, JSON both ways and the shard server all run, sockets do not.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/server"
)

const clusterShards = 2

// inproc routes the coordinator's shard requests to in-process
// handlers by host name, counting calls and wire bytes, and — on traced
// passes — recording one span per hop.
type inproc struct {
	shards map[string]http.Handler
	calls  atomic.Int64
	bytes  atomic.Int64

	mu     sync.Mutex
	tr     *tracer
	parent int
}

func (t *inproc) trace(tr *tracer, parent int) {
	t.mu.Lock()
	t.tr, t.parent = tr, parent
	t.mu.Unlock()
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.shards[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inproc: no shard %q", req.URL.Host)
	}
	t.mu.Lock()
	tr, parent := t.tr, t.parent
	t.mu.Unlock()
	name := "cluster.shard_rtt"
	if strings.HasSuffix(req.URL.Path, "/shard-info") {
		name = "cluster.shard_info"
	}
	id := tr.startUnder(name, parent)
	var sent int64
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		_ = req.Body.Close()
		sent = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := newRecorder()
	sid := tr.startUnder("server.handler", id)
	h.ServeHTTP(rec, req)
	tr.endAsync(sid)
	tr.endAsync(id)
	t.calls.Add(1)
	t.bytes.Add(sent + int64(rec.body.Len()))
	return &http.Response{
		StatusCode: rec.code, Status: http.StatusText(rec.code),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: rec.hdr, Body: io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()), Request: req,
	}, nil
}

type clusterFx struct {
	coord   *cluster.Coordinator
	h       http.Handler
	servers []*server.Server
	all     []minequery.Tuple
	staging []minequery.Tuple
	net     *inproc
	rec     *recorder
	texts   []string
	ops     []int // index into texts, in op order
	bodies  [][]byte
	want    []int
	before  cluster.Counters
	callsB4 int64
	bytesB4 int64
}

// clusterEngine builds one engine of the fleet: customers with the given
// rows, both models trained from the shared staging rows.
func clusterEngine(rows, staging []minequery.Tuple, ph phaseTimer) (*minequery.Engine, error) {
	eng := minequery.New()
	eng.SetDOP(1)
	if err := eng.CreateTable("customers", custSchema()); err != nil {
		return nil, err
	}
	if err := eng.InsertBatch("customers", rows); err != nil {
		return nil, err
	}
	if err := eng.CreateTable("staging", custSchema()); err != nil {
		return nil, err
	}
	if err := eng.InsertBatch("staging", staging); err != nil {
		return nil, err
	}
	mi, err := eng.TrainDecisionTree("riskmodel", "risk", "staging", []string{"age", "income"}, "risk", minequery.TreeOptions{})
	if err != nil {
		return nil, err
	}
	ph.model("dtree", mi)
	mi, err = eng.TrainNaiveBayes("segmodel", "segment", "staging", []string{"visits", "tier"}, "segment", minequery.BayesOptions{})
	if err != nil {
		return nil, err
	}
	ph.model("nbayes", mi)
	if len(rows) > 0 {
		if err := eng.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
			return nil, err
		}
		if err := eng.Analyze("customers"); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// genClusterTexts draws the statement set: envelope predicates that pin
// income to one shard, data predicates that touch both, grouped
// aggregates merged from partial states, and — the dearest statement,
// kept apart so that it can fill the top tenth of a pass on its own —
// a GROUP BY on a predicted column.
func genClusterTexts(r *rand.Rand) (pruned, unpruned, grouped []string, predicted string) {
	const head = `SELECT id, age, income FROM customers`
	for i := 0; i < 10; i++ {
		if i%2 == 0 { // the envelope puts income in the top five values: the top shard
			pruned = append(pruned, head+joinRisk+fmt.Sprintf(` WHERE r.risk = 'high' AND customers.age = %d`, r.Intn(4)))
		} else { // income below 10: the bottom shard
			pruned = append(pruned, head+joinRisk+fmt.Sprintf(` WHERE r.risk = 'elevated' AND customers.age = %d`, 60+r.Intn(20)))
		}
	}
	for i := 0; i < 6; i++ {
		unpruned = append(unpruned, head+fmt.Sprintf(` WHERE customers.visits = %d AND customers.tier = %d`,
			r.Intn(visitsDomain), r.Intn(tierDomain)))
	}
	lo := r.Intn(ageDomain - 30) // a 30-wide age window: the same share of the rows on every seed
	grouped = []string{
		`SELECT tier, count(*), sum(income) FROM customers GROUP BY tier`,
		`SELECT region, count(*), min(age), max(age) FROM customers GROUP BY region`,
		fmt.Sprintf(`SELECT tier, count(*), sum(visits) FROM customers WHERE customers.age >= %d AND customers.age < %d GROUP BY tier`, lo, lo+30),
	}
	predicted = `SELECT s.segment, count(*) FROM customers` + joinSeg + ` GROUP BY s.segment`
	return pruned, unpruned, grouped, predicted
}

func setupCluster(seed int64, sz sizes) (fixture, map[string]float64, error) {
	ph := phaseTimer{}
	// Every engine of the fleet trains its models on all the rows:
	// identical training data gives identical model fingerprints, which
	// envelope-driven shard pruning validates.
	all := genCustomers(rand.New(rand.NewSource(seed)), sz.custRows)
	staging := all
	bounds := []minequery.Value{minequery.Int(incomeDomain / clusterShards)}
	addrs := make([]string, clusterShards)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://shard-%d.bench", i)
	}
	m, err := cluster.NewRangeMap("customers", "income", bounds, addrs)
	if err != nil {
		return nil, nil, err
	}
	f := &clusterFx{all: all, staging: staging, net: &inproc{shards: map[string]http.Handler{}, parent: -1}, rec: newRecorder()}
	parts := make([][]minequery.Tuple, clusterShards)
	for _, row := range all {
		i := m.ShardFor(row[2])
		parts[i] = append(parts[i], row)
	}
	for i, part := range parts {
		eng, err := clusterEngine(part, staging, ph)
		if err != nil {
			return nil, nil, err
		}
		srv := server.New(eng, server.Config{})
		f.servers = append(f.servers, srv)
		f.net.shards[fmt.Sprintf("shard-%d.bench", i)] = srv.Handler()
	}
	planner, err := clusterEngine(nil, staging, ph)
	if err != nil {
		return nil, nil, err
	}
	ph.finish()
	f.coord = cluster.New(planner, m, cluster.Config{HTTP: &http.Client{Transport: f.net}})
	f.h = server.NewCoord(f.coord, 0).Handler()

	r := rand.New(rand.NewSource(seed + 6))
	pruned, unpruned, grouped, predicted := genClusterTexts(r)
	// 60% pruned, 20% unpruned, 10% grouped, 10% the predicted GROUP BY,
	// each kind cycling through its statements, the whole shuffled by the
	// seed: p50 falls inside the pruned ops and p95 inside the predicted
	// GROUP BY, not on the edge between two kinds, and every seed gets the
	// same number of ops of each kind.
	n := sz.clusterOps
	for _, kind := range []struct {
		texts []string
		share int
	}{{pruned, 60}, {unpruned, 20}, {grouped, 10}, {[]string{predicted}, 10}} {
		first := len(f.texts)
		f.texts = append(f.texts, kind.texts...)
		for i := 0; i < n*kind.share/100; i++ {
			f.ops = append(f.ops, first+i%len(kind.texts))
		}
	}
	r.Shuffle(len(f.ops), func(i, j int) { f.ops[i], f.ops[j] = f.ops[j], f.ops[i] })
	f.bodies = make([][]byte, len(f.texts))
	f.want = make([]int, len(f.texts))
	for i, sql := range f.texts {
		f.bodies[i] = jsonBody("sql", sql)
		f.want[i] = -1
	}
	return f, ph, nil
}

func (f *clusterFx) opsPerPass() int { return len(f.ops) }
func (f *clusterFx) rows() int       { return len(f.all) }

func (f *clusterFx) close() {
	for _, s := range f.servers {
		_ = s.Shutdown(context.Background())
	}
}

func (f *clusterFx) preparePass(int) {
	f.before = f.coord.Counters()
	f.callsB4, f.bytesB4 = f.net.calls.Load(), f.net.bytes.Load()
}

func (f *clusterFx) do(i int, tr *tracer) bool {
	t := f.ops[i]
	id := tr.start("cluster.query")
	if tr != nil {
		f.net.trace(tr, id)
	}
	serve(f.h, f.rec, "POST", "/v1/execute", f.bodies[t])
	if tr != nil {
		f.net.trace(nil, -1)
	}
	tr.end(id)
	if f.rec.code != http.StatusOK {
		return false
	}
	n := rowCount(f.rec.body.Bytes())
	if f.want[t] < 0 {
		f.want[t] = n
	}
	return n >= 0 && n == f.want[t]
}

func (f *clusterFx) enableTrace() error     { return nil }
func (f *clusterFx) twin(i int, tr *tracer) {}

func (f *clusterFx) afterPass(k int, tr *tracer, ps *passStats, out map[string]float64) {
	n := float64(ps.ops)
	if tr == nil {
		c := f.coord.Counters()
		if planned := c.Planned - f.before.Planned; planned > 0 {
			out["cluster.shards_pruned_ratio"] = float64(c.Pruned-f.before.Pruned) / float64(planned)
		}
		out["cluster.retries"] = float64(c.Retries - f.before.Retries)
		out["cluster.shard_calls_per_op"] = float64(f.net.calls.Load()-f.callsB4) / n
		out["cluster.wire_bytes_per_op"] = float64(f.net.bytes.Load()-f.bytesB4) / n
		return
	}
	agg := tr.aggregate()
	q, rtt := agg["cluster.query"], agg["cluster.shard_rtt"]
	out["cluster.query_us"] = us(q.total) / n
	out["cluster.coord_self_us"] = us(q.self) / n
	if rtt != nil {
		out["cluster.shard_rtt_us"] = us(rtt.total) / float64(rtt.count)
		out["cluster.slowest_shard_us"] = us(rtt.maxSum) / n
	}
	if h := agg["server.handler"]; h != nil {
		out["server.handler_us"] = us(h.total) / float64(h.count)
		out["server.self_us"] = 0
	}
}

func (f *clusterFx) finish(out map[string]float64) error {
	// Partial-aggregate merges per op, from the answers themselves: each
	// statement once, weighted by how often the op list runs it.
	uses := make([]int, len(f.texts))
	for _, t := range f.ops {
		uses[t]++
	}
	var merges float64
	for t, sql := range f.texts {
		var ans struct {
			AggMerges int64 `json:"agg_partial_merges"`
		}
		if err := call(f.h, "POST", "/v1/execute", map[string]string{"sql": sql}, &ans); err != nil {
			return err
		}
		merges += float64(ans.AggMerges) * float64(uses[t])
	}
	out["cluster.agg_partial_merges_per_op"] = merges / float64(len(f.ops))
	return nil
}

// verify checks every statement's merged answer against one node
// holding the union of the rows.
func (f *clusterFx) verify() (uint64, error) {
	union, err := clusterEngine(f.all, f.staging, phaseTimer{})
	if err != nil {
		return 0, err
	}
	var sum checksum
	for _, sql := range f.texts {
		var ans struct {
			Rows [][]any `json:"rows"`
		}
		if err := call(f.h, "POST", "/v1/execute", map[string]string{"sql": sql}, &ans); err != nil {
			return 0, err
		}
		got, err := canonJSONRows(ans.Rows)
		if err != nil {
			return 0, err
		}
		want, err := union.Query(context.Background(), sql)
		if err != nil {
			return 0, err
		}
		if err := sameRows(sql, got, canonTuples(want.Rows)); err != nil {
			return 0, err
		}
		sum.add(got)
	}
	return sum.h, nil
}

func (f *clusterFx) shares(l map[string]float64) []layerShare {
	q := l["cluster.query_us"]
	rest := q - l["cluster.slowest_shard_us"] - l["cluster.coord_self_us"]
	return shareList(q, []layerShare{
		{"cluster.slowest_shard", l["cluster.slowest_shard_us"]},
		{"cluster.other_hops", rest},
		{"cluster.coord", l["cluster.coord_self_us"]},
		{"unaccounted", 0},
	})
}

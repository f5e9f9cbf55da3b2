package server

// Tests of the read path's one sink: /v1/execute encodes each batch into
// the response's "rows" array while the batch is valid and writes the
// body once, after the statement returned without error. So an attempt
// that starts over leaves no row behind, a failure between batches
// answers the error envelope and nothing else, a result JSON cannot carry
// is an error and not an empty 200, and a request allocates for its
// body, not for its result.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/standing"
	"minequery/internal/wire"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// wideQuery returns every fourth customer or so through the
// (age, income) index: several batches of an index fetch.
const wideQuery = `SELECT id, age, segment FROM customers WHERE age = 3 AND income >= 2 AND income <= 3`

// TestNonFiniteResultAnswersInternal: SUM over two rows of 1.7e308 is
// +Inf, which JSON has no spelling for. Before the body was encoded ahead
// of the status line this answered 200 and zero bytes.
func TestNonFiniteResultAnswersInternal(t *testing.T) {
	eng := minequery.New()
	if err := eng.CreateTable("t", minequery.MustSchema(minequery.Column{Name: "x", Kind: minequery.KindFloat})); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch("t", []minequery.Tuple{{minequery.Float(1.7e308)}, {minequery.Float(1.7e308)}}); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, eng, Config{})
	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": "SELECT SUM(x) FROM t"})
	if status != http.StatusInternalServerError || errCode(t, raw) != wire.CodeInternal {
		t.Fatalf("SUM = +Inf answered %d %q, want 500 with code %q", status, raw, wire.CodeInternal)
	}
	// A finite answer from the same table still goes through.
	status, raw = call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": "SELECT MAX(x) FROM t"})
	if status != http.StatusOK || !strings.Contains(string(raw), `"rows":[[1.7e+308]]`) {
		t.Fatalf("MAX answered %d %s", status, raw)
	}

	// A fleet whose shards each sum to a finite 1.7e308: the coordinator
	// finalizes the merged SUM to +Inf, and answers the same.
	planner := minequery.New()
	if err := planner.CreateTable("t", minequery.MustSchema(
		minequery.Column{Name: "k", Kind: minequery.KindInt}, minequery.Column{Name: "x", Kind: minequery.KindFloat})); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, k := range []int64{1, 20} {
		shard := minequery.New()
		if err := shard.CreateTable("t", minequery.MustSchema(
			minequery.Column{Name: "k", Kind: minequery.KindInt}, minequery.Column{Name: "x", Kind: minequery.KindFloat})); err != nil {
			t.Fatal(err)
		}
		if err := shard.Insert("t", minequery.Tuple{minequery.Int(k), minequery.Float(1.7e308)}); err != nil {
			t.Fatal(err)
		}
		_, sts := testServer(t, shard, Config{})
		addrs = append(addrs, sts.URL)
	}
	m, err := cluster.NewRangeMap("t", "k", []minequery.Value{minequery.Int(10)}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(NewCoord(cluster.New(planner, m, cluster.Config{}), 0).Handler())
	defer cts.Close()
	status, raw = call(t, http.MethodPost, cts.URL+"/v1/execute", map[string]any{"sql": "SELECT SUM(x) FROM t"})
	if status != http.StatusInternalServerError || errCode(t, raw) != wire.CodeInternal {
		t.Fatalf("fleet SUM = +Inf answered %d %q, want 500 with code %q", status, raw, wire.CodeInternal)
	}
	status, raw = call(t, http.MethodPost, cts.URL+"/v1/execute", map[string]any{"sql": "SELECT MAX(x) FROM t"})
	if status != http.StatusOK || !strings.Contains(string(raw), `"rows":[[1.7e+308]]`) {
		t.Fatalf("fleet MAX answered %d %s", status, raw)
	}

	// A notification's row goes through the same encoder.
	if _, err := notificationsBody([]minequery.Notification{{Image: &standing.Image{Row: minequery.Tuple{minequery.Float(math.Inf(1))}}}}); err == nil {
		t.Fatal("a notification of +Inf encoded")
	} else if code, _ := classify(err); code != wire.CodeInternal {
		t.Fatalf("a notification of +Inf is %q, want %q", code, wire.CodeInternal)
	}

	// A body whose other fields JSON cannot carry takes the same exit.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, wire.ExecuteResponse{EstSelectivity: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || errCode(t, rec.Body.Bytes()) != wire.CodeInternal {
		t.Fatalf("writeJSON of an unencodable body answered %d %q", rec.Code, rec.Body)
	}
}

// TestFallbackMidStreamSameBytes: an index path that fails a fetch after
// its first batch has already been encoded makes the engine start over on
// the fallback scan. The answer is the clean run's rows, once each.
func TestFallbackMidStreamSameBytes(t *testing.T) {
	eng := testEngine(t, 40000)
	eng.SetRetryPolicy(minequery.RetryPolicy{MaxAttempts: 1})
	_, ts := testServer(t, eng, Config{BreakerThreshold: -1})

	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": wideQuery})
	if status != http.StatusOK {
		t.Fatalf("clean run: %d %s", status, raw)
	}
	clean := decode[chaosWire](t, raw)
	if clean.Fallback || !strings.HasPrefix(clean.AccessPath, "index") || clean.RowCount < 600 {
		t.Fatalf("fixture: fallback=%v access=%q rows=%d, want an index path over several batches",
			clean.Fallback, clean.AccessPath, clean.RowCount)
	}

	// The 300th fetch fails: one batch of 256 is out, the second is not.
	faults := minequery.NewFaultInjector(1,
		minequery.FaultRule{Site: minequery.FaultSitePageReadRand, OnHit: 300, Err: minequery.ErrInjected})
	eng.SetFaults(faults)
	defer eng.SetFaults(nil)
	status, raw = call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": wideQuery})
	if status != http.StatusOK {
		t.Fatalf("run under the fault: %d %s", status, raw)
	}
	got := decode[chaosWire](t, raw)
	if faults.Fired(minequery.FaultSitePageReadRand) != 1 || !got.Fallback {
		t.Fatalf("fired %d times, fallback=%v: the test is vacuous", faults.Fired(minequery.FaultSitePageReadRand), got.Fallback)
	}
	if got.RowCount != clean.RowCount || !bytes.Equal(got.Rows, clean.Rows) {
		t.Fatalf("restarted answer: %d rows, clean %d (or bytes differ)\n got %.200s\nwant %.200s",
			got.RowCount, clean.RowCount, got.Rows, clean.Rows)
	}
}

// TestDeadlineBetweenBatchesAnswersTimeout: the deadline passes while
// the scan is between its first batch and its second. The rows already
// encoded go nowhere: the body is the timeout envelope, whole and alone.
func TestDeadlineBetweenBatchesAnswersTimeout(t *testing.T) {
	eng := testEngine(t, 8000)
	eng.SetDOP(1) // the batch site belongs to the serial scan
	s, ts := testServer(t, eng, Config{})
	faults := minequery.NewFaultInjector(1,
		minequery.FaultRule{Site: minequery.FaultSiteBatch, OnHit: 2, Delay: 300 * time.Millisecond})
	eng.SetFaults(faults)
	defer eng.SetFaults(nil)

	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute",
		map[string]any{"sql": "SELECT id, age FROM customers WHERE income >= 0", "timeout_ms": 100})
	if faults.Fired(minequery.FaultSiteBatch) != 1 {
		t.Fatalf("the stall fired %d times: the test is vacuous", faults.Fired(minequery.FaultSiteBatch))
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.300s", status, raw)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var env wire.ErrorEnvelope
	if err := dec.Decode(&env); err != nil || env.Error.Code != wire.CodeTimeout || dec.More() {
		t.Fatalf("body is not exactly the timeout envelope (%v): %.300s", err, raw)
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// retrainAtFirstBegin is a rowEncoder whose first attempt finds the
// catalog changed under it: the change lands after every validity check
// and before the plan is built, which is when a stale plan is caught.
type retrainAtFirstBegin struct {
	*rowEncoder
	retrain func()
	begun   int
}

func (r *retrainAtFirstBegin) Begin() {
	r.rowEncoder.Begin()
	if r.begun++; r.begun == 1 {
		r.retrain()
	}
}

// TestStalePlanMidFlightSameBytes: the statement goes stale inside its
// first attempt, the registry re-prepares and runs it again into the same
// sink, and the answer is a clean run's.
func TestStalePlanMidFlightSameBytes(t *testing.T) {
	eng := testEngine(t, 8000)
	s, ts := testServer(t, eng, Config{})
	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	if status != http.StatusOK {
		t.Fatalf("clean run: %d %s", status, raw)
	}
	clean := decode[executeWire](t, raw)

	ent, _, err := s.reg.lookup(vipQuery, false)
	if err != nil {
		t.Fatal(err)
	}
	before := s.reg.stats().Reprepares
	sink := &retrainAtFirstBegin{rowEncoder: new(rowEncoder), retrain: func() {
		// The same model over the same rows: a new version, the same answers.
		if _, err := eng.TrainNaiveBayes("segmodel", "segment", "customers",
			[]string{"age", "income"}, "segment", minequery.BayesOptions{}); err != nil {
			t.Error(err)
		}
	}}
	// What an attempt that got further would have left behind.
	sink.rowEncoder.buf = append(sink.rowEncoder.buf, `,[-1,-1,-1],[-2,-2,-2]`...)
	sink.rowEncoder.n += 2
	res, reused, err := s.reg.execute(context.Background(), ent, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.begun != 2 || reused || s.reg.stats().Reprepares != before+1 {
		t.Fatalf("%d attempts, reused=%v, %d re-prepares: the statement did not go stale mid-flight",
			sink.begun, reused, s.reg.stats().Reprepares-before)
	}
	if got := sink.rows(); res.RowCount != clean.RowCount || got.N != clean.RowCount || !bytes.Equal(got.Encoded, clean.Rows) {
		t.Fatalf("re-prepared answer: %d rows (%d encoded), clean %d (or bytes differ)\n got %.200s\nwant %.200s",
			res.RowCount, got.N, clean.RowCount, got.Encoded, clean.Rows)
	}
	if res.Rows != nil {
		t.Fatalf("Result.Rows holds %d rows beside the sink's", len(res.Rows))
	}
}

// discardWriter is a ResponseWriter that keeps no body, so that what a
// request allocates is the server's doing.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// maxExecuteBytes bounds what one /v1/execute of a prepared statement
// may allocate once the pools are warm, whatever it returns. The scan's
// arena comes from the executor's pools too and the Project narrows rows
// in place, so what is left is the operators, the collector and the
// analyze report, the response's strings — 11.2 KiB measured for 400
// rows and for 3,200.
// A fresh arena and Project buffer per request made that 158 KiB; holding
// the answer as tuples, a doubling slice of them and boxed cells, 197 KiB
// for 400 rows and 964 KiB for 3,200.
const maxExecuteBytes = 32 << 10

// TestAllocExecuteFollowsBody: with warm pools, a request's allocation
// does not hold its result in any form — eight times the rows cost the
// same, under a constant. The requests run on one P: a recycle.Pool
// hands its last item to any P, but what it holds beyond that (an arena's
// other chunks) only the P that put it finds, so a request that moved P
// would allocate those afresh.
func TestAllocExecuteFollowsBody(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector, whose sync.Pool drops what it is given")
	}
	eng := testEngine(t, 8000)
	eng.SetDOP(1)
	s, ts := testServer(t, eng, Config{})
	perRequest := func(rows int) uint64 {
		sql := fmt.Sprintf("SELECT id, age, income FROM customers WHERE id < %d", rows)
		status, raw := call(t, http.MethodPost, ts.URL+"/v1/prepare", map[string]any{"sql": sql})
		if status != http.StatusOK {
			t.Fatalf("prepare: %d %s", status, raw)
		}
		body, err := json.Marshal(map[string]string{"statement_id": decode[wire.PrepareResponse](t, raw).StatementID})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			w.status, w.n = 0, 0
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
			if w.status != http.StatusOK || w.n < 8*rows {
				t.Fatalf("execute: status %d, %d body bytes for %d rows", w.status, w.n, rows)
			}
		}
		serve() // warms the pools with buffers of this answer's size
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	// A collection between requests would empty the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small, large := perRequest(400), perRequest(3200)
	t.Logf("%d B per request of 400 rows, %d B of 3200", small, large)
	if large > maxExecuteBytes {
		t.Fatalf("a 3200-row request allocates %d B, over the %d B a request may cost without holding its result", large, maxExecuteBytes)
	}
	if float64(large) > 1.1*float64(small) {
		t.Fatalf("a request allocates with the rows it returns: %d B for 400 rows, %d B for 3200", small, large)
	}
}

// TestPartialAggregateAnswersNoRows: a partial-aggregate execution
// delivers state, not rows, and is still an attempt — an encoder that
// comes off the pool holding another answer's rows answers [].
func TestPartialAggregateAnswersNoRows(t *testing.T) {
	eng := testEngine(t, 2000)
	s, _ := testServer(t, eng, Config{})
	rows := new(rowEncoder)
	resp, err := s.execute(context.Background(), "SELECT id FROM customers WHERE id < 3", "", false, nil, nil, rows)
	if err != nil || string(resp.Rows.Encoded) != "[[0],[1],[2]]" {
		t.Fatalf("rows %s, err %v", resp.Rows.Encoded, err)
	}
	resp, err = s.execute(context.Background(), "SELECT income, count(*) FROM customers GROUP BY income", "", false, nil,
		[]minequery.QueryOption{minequery.WithPartialAggs()}, rows)
	if err != nil || resp.AggPartial == nil || string(resp.Rows.Encoded) != "[]" || resp.RowCount != 0 {
		t.Fatalf("partial aggregate answered rows %s (count %d), state %v, err %v", resp.Rows.Encoded, resp.RowCount, resp.AggPartial, err)
	}
}

package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/server"
	"minequery/internal/wire"
)

// postJSON posts body to url+path and returns (status, raw response).
func postJSON(t *testing.T, url, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// rowsPayload is the part of an execute response the byte-identity
// checks compare: the raw bytes of columns, schema, and rows.
type rowsPayload struct {
	Columns  json.RawMessage `json:"columns"`
	Schema   json.RawMessage `json:"schema"`
	Rows     json.RawMessage `json:"rows"`
	RowCount int             `json:"row_count"`
	Shards   struct {
		Planned  int `json:"planned"`
		Pruned   int `json:"pruned"`
		Queried  int `json:"queried"`
		Degraded int `json:"degraded"`
	} `json:"shards"`
	StatementID string `json:"statement_id"`
	Degraded    bool   `json:"degraded"`
	Error       *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// sessionWithDOP creates a session on a single-node server with the
// given scan parallelism.
func sessionWithDOP(t *testing.T, url string, dop int) string {
	t.Helper()
	st, raw := postJSON(t, url, "/v1/session", map[string]any{})
	if st != http.StatusOK {
		t.Fatalf("create session: %d %s", st, raw)
	}
	var sess struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(raw, &sess); err != nil {
		t.Fatal(err)
	}
	st, raw = postJSON(t, url, "/v1/session/"+sess.SessionID+"/settings", map[string]any{"dop": dop})
	if st != http.StatusOK {
		t.Fatalf("set dop: %d %s", st, raw)
	}
	return sess.SessionID
}

func decodePayload(t *testing.T, raw []byte) rowsPayload {
	t.Helper()
	var p rowsPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("decode response %s: %v", raw, err)
	}
	return p
}

// execBoth runs sql through the coordinator HTTP server and the union
// single-node HTTP server and asserts the columns and rows are
// byte-identical.
func execBoth(t *testing.T, coordURL, unionURL, sql string, dop int) (coord rowsPayload) {
	t.Helper()
	req := map[string]any{"sql": sql}
	ureq := map[string]any{"sql": sql}
	if dop > 0 {
		// The coordinator takes dop inline; the single-node server only
		// via session settings.
		req["dop"] = dop
		ureq["session_id"] = sessionWithDOP(t, unionURL, dop)
	}
	cst, craw := postJSON(t, coordURL, "/v1/execute", req)
	ust, uraw := postJSON(t, unionURL, "/v1/execute", ureq)
	if cst != http.StatusOK || ust != http.StatusOK {
		t.Fatalf("exec %q: coord=%d union=%d (coord body %s)", sql, cst, ust, craw)
	}
	cp, up := decodePayload(t, craw), decodePayload(t, uraw)
	if !bytes.Equal(cp.Columns, up.Columns) {
		t.Fatalf("exec %q: columns diverge\ncoord: %s\nunion: %s", sql, cp.Columns, up.Columns)
	}
	if !bytes.Equal(cp.Schema, up.Schema) {
		t.Fatalf("exec %q: schema diverges\ncoord: %s\nunion: %s", sql, cp.Schema, up.Schema)
	}
	if !bytes.Equal(cp.Rows, up.Rows) {
		t.Fatalf("exec %q: rows diverge (coord %d vs union %d rows)\ncoord: %.400s\nunion: %.400s",
			sql, cp.RowCount, up.RowCount, cp.Rows, up.Rows)
	}
	return cp
}

func bootCoordHTTP(t *testing.T, tc *testCluster) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(server.NewCoord(tc.coord, 0).Handler())
	t.Cleanup(hs.Close)
	return hs
}

const vipQuery = "SELECT * FROM customers PREDICTION JOIN seg_tree AS m" +
	" ON m.age = customers.age AND m.income = customers.income WHERE m.seg = 'vip'"

func TestCoordinatorByteIdenticalToUnion(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 4000, cluster.Config{})
	ch := bootCoordHTTP(t, tc)

	cases := []struct {
		name        string
		sql         string
		wantPruned  int
		wantQueried int
	}{
		{"full-scan", "SELECT * FROM customers WHERE visits >= 0", 0, 3},
		{"range-prunes-two", "SELECT * FROM customers WHERE income < 3", 2, 1},
		{"range-spans-two", "SELECT * FROM customers WHERE income >= 3 AND income < 6 AND age <= 4", 2, 1},
		{"point-prunes-two", "SELECT * FROM customers WHERE income = 7 AND visits < 25", 2, 1},
		{"or-keeps-edges", "SELECT * FROM customers WHERE income < 2 OR income > 6", 1, 2},
		{"limit-cuts-across", "SELECT * FROM customers WHERE age >= 2 LIMIT 17", 0, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := execBoth(t, ch.URL, tc.unionHTTP.URL, c.sql, 0)
			if p.Shards.Planned != 3 || p.Shards.Pruned != c.wantPruned || p.Shards.Queried != c.wantQueried {
				t.Fatalf("shards line planned=%d pruned=%d queried=%d, want 3/%d/%d",
					p.Shards.Planned, p.Shards.Pruned, p.Shards.Queried, c.wantPruned, c.wantQueried)
			}
			if p.Degraded {
				t.Fatal("healthy cluster reported degraded")
			}
		})
	}
}

func TestCoordinatorEnvelopePrunesShards(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 4000, cluster.Config{})
	ch := bootCoordHTTP(t, tc)

	// The vip class needs income = 7 (see segmentFor), so the model's
	// upper envelope confines vip rows to the top income range: the
	// coordinator must skip the low shards without being told about
	// income in the query text at all.
	p := execBoth(t, ch.URL, tc.unionHTTP.URL, vipQuery, 0)
	if p.Shards.Pruned == 0 {
		t.Fatalf("envelope did not prune any shard (queried=%d)", p.Shards.Queried)
	}
	if p.RowCount == 0 {
		t.Fatal("vip query returned no rows; envelope pruning is suspect")
	}

	// The same weakening must stay sound under OR with a data predicate
	// that widens the satisfiable region back onto a low shard.
	p = execBoth(t, ch.URL, tc.unionHTTP.URL,
		"SELECT * FROM customers PREDICTION JOIN seg_tree AS m"+
			" ON m.age = customers.age AND m.income = customers.income"+
			" WHERE m.seg = 'vip' OR income = 0", 0)
	if p.Shards.Queried < 2 {
		t.Fatalf("OR-widened envelope query must reach the low shard (queried=%d)", p.Shards.Queried)
	}
}

func TestCoordinatorAllShardsPruned(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 500, cluster.Config{})
	ch := bootCoordHTTP(t, tc)
	// The top shard's range is unbounded above, so only a predicate
	// whose satisfiable interval is empty can prune everything.
	p := execBoth(t, ch.URL, tc.unionHTTP.URL,
		"SELECT * FROM customers WHERE income < 2 AND income > 5", 0)
	if p.Shards.Pruned != 3 || p.Shards.Queried != 0 {
		t.Fatalf("want every shard pruned, got pruned=%d queried=%d", p.Shards.Pruned, p.Shards.Queried)
	}
	if p.RowCount != 0 {
		t.Fatalf("all-pruned query returned %d rows", p.RowCount)
	}
	if len(p.Columns) == 0 || string(p.Columns) == "null" {
		t.Fatalf("all-pruned query lost its column shape: %s", p.Columns)
	}
}

func TestCoordinatorDOPParity(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 3000, cluster.Config{})
	ch := bootCoordHTTP(t, tc)
	for _, dop := range []int{1, 4} {
		execBoth(t, ch.URL, tc.unionHTTP.URL,
			"SELECT * FROM customers WHERE income >= 2 AND age < 8", dop)
		execBoth(t, ch.URL, tc.unionHTTP.URL, vipQuery, dop)
	}
}

func TestCoordinatorPreparedStatements(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{})
	ch := bootCoordHTTP(t, tc)

	st, raw := postJSON(t, ch.URL, "/v1/prepare", map[string]any{"sql": vipQuery})
	if st != http.StatusOK {
		t.Fatalf("prepare: %d %s", st, raw)
	}
	var prep wire.PreparedInfo
	if err := json.Unmarshal(raw, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.StatementID == "" || prep.ShardsPrepared != 3 {
		t.Fatalf("prepare: %+v", prep)
	}
	// Re-preparing the same text is a coordinator cache hit.
	_, raw2 := postJSON(t, ch.URL, "/v1/prepare", map[string]any{"sql": vipQuery})
	var prep2 wire.PreparedInfo
	if err := json.Unmarshal(raw2, &prep2); err != nil {
		t.Fatal(err)
	}
	if !prep2.Cached || prep2.StatementID != prep.StatementID {
		t.Fatalf("re-prepare not cached: %+v", prep2)
	}

	// Executing by statement id must match the ad-hoc union answer.
	ust, uraw := postJSON(t, tc.unionHTTP.URL, "/v1/execute", map[string]any{"sql": vipQuery})
	cst, craw := postJSON(t, ch.URL, "/v1/execute", map[string]any{"statement_id": prep.StatementID})
	if ust != http.StatusOK || cst != http.StatusOK {
		t.Fatalf("execute: union=%d coord=%d %s", ust, cst, craw)
	}
	cp, up := decodePayload(t, craw), decodePayload(t, uraw)
	if !bytes.Equal(cp.Rows, up.Rows) {
		t.Fatalf("prepared execution diverges from union:\ncoord: %.300s\nunion: %.300s", cp.Rows, up.Rows)
	}
	if cp.StatementID != prep.StatementID {
		t.Fatalf("response statement id %q, want %q", cp.StatementID, prep.StatementID)
	}
}

// TestCoordinatorStatementOutlivesShardEviction: a coordinator-prepared
// statement reaches a shard as its text, so a shard whose registry has
// evicted the plan builds it again on the call, with no recovery round.
func TestCoordinatorStatementOutlivesShardEviction(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1000, cluster.Config{})
	ctx := context.Background()
	prep, err := tc.coord.Prepare(ctx, vipQuery)
	if err != nil || prep.ShardsPrepared != 3 {
		t.Fatalf("prepare: %+v, %v", prep, err)
	}
	// 300 distinct texts straight to each shard push the prepared plan out
	// of its 256-entry registry.
	for _, hs := range tc.https {
		for i := 0; i < 300; i++ {
			sql := fmt.Sprintf("SELECT id FROM customers WHERE id = %d", i)
			if st, raw := postJSON(t, hs.URL, "/v1/execute", map[string]any{"sql": sql}); st != http.StatusOK {
				t.Fatalf("ad-hoc %q: %d %s", sql, st, raw)
			}
		}
	}
	before := tc.coord.Counters().Replans
	res, err := tc.coord.Execute(ctx, cluster.Request{StatementID: prep.StatementID})
	if err != nil {
		t.Fatal(err)
	}
	_, uraw := postJSON(t, tc.unionHTTP.URL, "/v1/execute", map[string]any{"sql": vipQuery})
	if up := decodePayload(t, uraw); !bytes.Equal(res.Rows.Encoded, up.Rows) {
		t.Fatalf("prepared execution diverges from union:\ncoord: %.300s\nunion: %.300s", res.Rows.Encoded, up.Rows)
	}
	if n := tc.coord.Counters().Replans - before; n != 0 {
		t.Fatalf("%d replan rounds after the shards evicted the plan, want 0", n)
	}
}

// TestStatementTableConcurrent: Prepare, execute by id and ad-hoc
// Execute of more texts than the coordinator's statement table holds,
// all at once. An id runs its own statement's text or answers
// not_found, the table never lists more than its bound, and an id whose
// text was pushed out answers not_found.
func TestStatementTableConcurrent(t *testing.T) {
	tc := newTestCluster(t, 2, []int64{4}, 400, cluster.Config{})
	ctx := context.Background()
	const n = cluster.MaxOutlines + 44
	prepared := func(i int) string { return fmt.Sprintf("SELECT id FROM customers WHERE id = %d", i) }
	adhoc := func(i int) string { return fmt.Sprintf("SELECT id FROM customers WHERE id = %d AND age >= 0", i) }
	check := func(what string, i int, res *cluster.Result, err error, evictable bool) {
		var re *cluster.RemoteError
		switch {
		case err != nil && evictable && errors.As(err, &re) && re.Code == wire.CodeNotFound:
		case err != nil:
			t.Errorf("%s %d: %v", what, i, err)
		case string(res.Rows.Encoded) != fmt.Sprintf("[[%d]]", i):
			t.Errorf("%s %d answered %s", what, i, res.Rows.Encoded)
		}
	}
	const workers = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				p, err := tc.coord.Prepare(ctx, prepared(i))
				if err != nil {
					t.Errorf("prepare %d: %v", i, err)
					return
				}
				ids[i] = p.StatementID
				for _, j := range []int{i, i - workers} {
					if j >= 0 {
						res, err := tc.coord.Execute(ctx, cluster.Request{StatementID: ids[j]})
						check("statement", j, res, err, true)
					}
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				res, err := tc.coord.Execute(ctx, cluster.Request{SQL: adhoc(i)})
				check("ad-hoc", i, res, err, false)
			}
		}(w)
	}
	done := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if l := len(tc.coord.Statements()); l > cluster.MaxOutlines {
				t.Errorf("Statements() listed %d, over the bound %d", l, cluster.MaxOutlines)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-watched
	if t.Failed() {
		return
	}
	// MaxOutlines newer texts push every prepared one out. Their ranges
	// are empty, so no shard is called.
	for i := 0; i < cluster.MaxOutlines; i++ {
		if _, err := tc.coord.Execute(ctx, cluster.Request{SQL: fmt.Sprintf("SELECT id FROM customers WHERE income < 1 AND income > 5 AND id = %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l := len(tc.coord.Statements()); l != 0 {
		t.Fatalf("%d statements listed after %d newer texts, want 0", l, cluster.MaxOutlines)
	}
	for i, id := range ids {
		var re *cluster.RemoteError
		if _, err := tc.coord.Execute(ctx, cluster.Request{StatementID: id}); !errors.As(err, &re) || re.Code != wire.CodeNotFound {
			t.Fatalf("evicted statement %s (%d): %v, want not_found", id, i, err)
		}
	}
}

func TestCoordinatorExplainAnalyzeShardsLine(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1000, cluster.Config{})
	report, err := tc.coord.ExplainAnalyze(context.Background(), "SELECT * FROM customers WHERE income < 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"shards: planned=3 pruned=2 queried=1",
		"pruned (data predicate disjoint from range)",
		"cluster: table=customers mode=range column=income",
	} {
		if !bytes.Contains([]byte(report), []byte(want)) {
			t.Fatalf("EXPLAIN ANALYZE report missing %q:\n%s", want, report)
		}
	}
	report, err = tc.coord.ExplainAnalyze(context.Background(), vipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(report), []byte("envelope disjoint from range")) {
		t.Fatalf("EXPLAIN ANALYZE does not attribute envelope pruning:\n%s", report)
	}
}

// directConcat queries every shard engine directly and concatenates in
// shard order — the soundness oracle once shard catalogs diverge from
// the union node.
func directConcat(t *testing.T, tc *testCluster, sql string) [][]string {
	t.Helper()
	var out [][]string
	for i, eng := range tc.engines {
		res, err := eng.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("shard %d direct query: %v", i, err)
		}
		out = append(out, rowStrings(res.Rows)...)
	}
	return out
}

// cells decodes a coordinator's rows for a test that looks inside them.
func cells(t *testing.T, rows wire.RowSet) [][]any {
	t.Helper()
	c, err := rows.Cells()
	if err != nil {
		t.Fatalf("rows %.200s: %v", rows.Encoded, err)
	}
	return c
}

// coordStrings canonicalizes the coordinator's JSON rows.
func coordStrings(t *testing.T, set wire.RowSet) [][]string {
	t.Helper()
	rows := cells(t, set)
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case nil:
				cells[j] = "NULL"
			case json.Number:
				cells[j] = x.String()
			case bool:
				if x {
					cells[j] = "true"
				} else {
					cells[j] = "false"
				}
			default:
				cells[j] = fmt.Sprint(x)
			}
		}
		out[i] = cells
	}
	return out
}

func assertSameRows(t *testing.T, got, want [][]string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cells, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d cell %d = %q, want %q", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestCrossNodePlanInvalidation retrains the model on one shard —
// bumping its catalog epoch and fingerprint — and asserts the
// coordinator detects the divergence and re-queries rather than serving
// a prune decision derived from the stale envelope.
func TestCrossNodePlanInvalidation(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{})
	ctx := context.Background()
	if err := tc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Warm: envelope pruning skips the low shards.
	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardStats.Pruned == 0 {
		t.Fatalf("warm query did not envelope-prune: %+v", res.ShardStats)
	}

	// Retrain shard 0's model with shifted labels: low-income rows are
	// now vip, so the stale envelope's "no vip below income 7" claim is
	// wrong on that shard.
	shard0 := tc.engines[0]
	extra := make([]minequery.Tuple, 0, 200)
	for i := 0; i < 200; i++ {
		extra = append(extra, minequery.Tuple{
			minequery.Int(int64(i % 2)), minequery.Int(int64(i % 3)), minequery.Str("vip"),
		})
	}
	if err := shard0.InsertBatch("training", extra); err != nil {
		t.Fatal(err)
	}
	epochBefore := shard0.CatalogEpoch()
	if _, err := shard0.TrainDecisionTree("seg_tree", "seg", "training",
		[]string{"age", "income"}, "segment", minequery.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	if shard0.CatalogEpoch() == epochBefore {
		t.Fatal("retrain did not bump the shard's catalog epoch")
	}

	replansBefore := tc.coord.Counters().Replans
	res, err = tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
	if err != nil {
		t.Fatal(err)
	}
	// The runtime fingerprint check must demote shard 0's prune to a
	// query; the merged answer must equal asking every shard directly
	// (the union node is no longer an oracle — catalogs diverged).
	if res.ShardStats.Queried < 2 {
		t.Fatalf("stale envelope prune survived retrain: %+v", res.ShardStats)
	}
	if tc.coord.Counters().Replans == replansBefore {
		t.Fatal("no replan recorded for the fingerprint divergence")
	}
	assertSameRows(t, coordStrings(t, res.Rows), directConcat(t, tc, vipQuery), "post-retrain vip query")

	// The per-shard epoch view must have moved past the retrain.
	var st0 wire.ShardStatus
	for _, st := range tc.coord.ShardStatuses() {
		if st.ID == 0 {
			st0 = st
		}
	}
	if st0.LastEpoch != shard0.CatalogEpoch() {
		t.Fatalf("coordinator shard-0 epoch view %d, engine at %d", st0.LastEpoch, shard0.CatalogEpoch())
	}
}

// TestEpochGuardOnQueriedShard retrains on a shard the query actually
// reaches: the guarded shard-exec must 409, and the coordinator must
// resync and succeed within its replan budget.
func TestEpochGuardOnQueriedShard(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{})
	ctx := context.Background()
	if err := tc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Retrain on shard 2 (the vip query's surviving shard) without the
	// coordinator hearing about it: its cached epoch is now stale.
	if _, err := tc.engines[2].TrainDecisionTree("seg_tree", "seg", "training",
		[]string{"age", "income"}, "segment", minequery.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	replansBefore := tc.coord.Counters().Replans
	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
	if err != nil {
		t.Fatal(err)
	}
	if tc.coord.Counters().Replans == replansBefore {
		t.Fatal("guarded execution did not record the epoch-mismatch replan")
	}
	assertSameRows(t, coordStrings(t, res.Rows), directConcat(t, tc, vipQuery), "post-retrain guarded query")
}

func TestCoordinatorClusterEndpointAndMetrics(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 500, cluster.Config{})
	ch := bootCoordHTTP(t, tc)
	execBoth(t, ch.URL, tc.unionHTTP.URL, "SELECT * FROM customers WHERE income < 3", 0)

	resp, err := http.Get(ch.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cl struct {
		Table  string             `json:"table"`
		Mode   string             `json:"mode"`
		Shards []wire.ShardStatus `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	if cl.Table != "customers" || cl.Mode != "range" || len(cl.Shards) != 3 {
		t.Fatalf("cluster endpoint: %+v", cl)
	}
	for _, st := range cl.Shards {
		if st.Breaker != "closed" {
			t.Fatalf("healthy shard %d breaker %q", st.ID, st.Breaker)
		}
	}

	mresp, err := http.Get(ch.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, series := range []string{
		"minequery_coord_queries_total", "minequery_shard_planned_total",
		"minequery_shard_pruned_total", "minequery_shard_queried_total",
		"minequery_shard_degraded_total", "minequery_shard_errors_total",
		"minequery_shard_retries_total", "minequery_shard_replans_total",
		"minequery_shard_breaker_open", "minequery_shard_breaker_trips_total",
	} {
		if !bytes.Contains([]byte(scrape), []byte(series)) {
			t.Fatalf("coordinator /metrics missing %s", series)
		}
	}
	if !bytes.Contains([]byte(scrape), []byte("minequery_shard_pruned_total 2")) {
		t.Fatalf("pruned counter not exported after a pruning query:\n%.600s", scrape)
	}
}

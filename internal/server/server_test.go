package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"minequery"
	"minequery/internal/wire"
)

// testEngine builds a customers fixture with a rare "vip" segment and
// one trained naive Bayes model.
func testEngine(t testing.TB, rows int) *minequery.Engine {
	t.Helper()
	eng := minequery.New()
	if err := eng.CreateTable("customers", minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "income", Kind: minequery.KindInt},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	batch := make([]minequery.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		age := int64(r.Intn(10))
		income := int64(r.Intn(8))
		seg := "regular"
		switch {
		case age == 0 && income == 7:
			seg = "vip"
		case income <= 1:
			seg = "budget"
		}
		batch = append(batch, minequery.Tuple{
			minequery.Int(int64(i)), minequery.Int(age), minequery.Int(income), minequery.Str(seg),
		})
	}
	if err := eng.InsertBatch("customers", batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainNaiveBayes("segmodel", "segment", "customers",
		[]string{"age", "income"}, "segment", minequery.BayesOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	return eng
}

const vipQuery = `SELECT id, age, income FROM customers
	PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
	WHERE m.segment = 'vip'`

// testServer starts the server over httptest and tears it down with
// the test.
func testServer(t testing.TB, eng *minequery.Engine, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// call POSTs a JSON body (or GETs when body is nil) and returns status
// and raw response.
func call(t testing.TB, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decode[T any](t testing.TB, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return v
}

// executeWire is executeResponse with raw rows, so tests can compare
// result bytes exactly.
type executeWire struct {
	StatementID       string          `json:"statement_id"`
	StatementCacheHit bool            `json:"statement_cache_hit"`
	Columns           []string        `json:"columns"`
	Rows              json.RawMessage `json:"rows"`
	RowCount          int             `json:"row_count"`
	AccessPath        string          `json:"access_path"`
}

func errCode(t testing.TB, raw []byte) string {
	t.Helper()
	v := decode[map[string]wire.ErrorBody](t, raw)
	return v["error"].Code
}

func TestPrepareExecuteRoundTrip(t *testing.T) {
	eng := testEngine(t, 8000)
	_, ts := testServer(t, eng, Config{})

	// Engine-side reference result, computed before the server touches
	// anything, encoded as the server sends it in "rows".
	want, err := eng.Query(context.Background(), vipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("fixture must return rows")
	}
	wantRows, err := wire.EncodeRows(want.Rows)
	if err != nil {
		t.Fatal(err)
	}

	st, raw := call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: vipQuery})
	if st != http.StatusOK {
		t.Fatalf("prepare: %d %s", st, raw)
	}
	prep := decode[wire.PrepareResponse](t, raw)
	if prep.Cached {
		t.Fatal("first prepare must not be cached")
	}
	if prep.StatementID == "" {
		t.Fatal("no statement id")
	}

	// Same SQL with different spelling hits the normalized key.
	respelled := strings.ToLower(strings.Join(strings.Fields(vipQuery), " "))
	st, raw = call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: respelled})
	if st != http.StatusOK {
		t.Fatalf("re-prepare: %d %s", st, raw)
	}
	prep2 := decode[wire.PrepareResponse](t, raw)
	if !prep2.Cached || prep2.StatementID != prep.StatementID {
		t.Fatalf("respelled prepare: cached=%v id=%s, want cached reuse of %s",
			prep2.Cached, prep2.StatementID, prep.StatementID)
	}

	// Execute by statement id at DOP 1 and DOP 4 via sessions: results
	// must be byte-identical to the engine's one-shot path.
	for _, dop := range []int{1, 4} {
		_, raw = call(t, "POST", ts.URL+"/v1/session", nil)
		sess := decode[sessionResponse](t, raw)
		st, raw = call(t, "POST", ts.URL+"/v1/session/"+sess.SessionID+"/settings",
			settingsRequest{DOP: &dop})
		if st != http.StatusOK {
			t.Fatalf("settings: %d %s", st, raw)
		}
		st, raw = call(t, "POST", ts.URL+"/v1/execute",
			wire.ExecuteRequest{StatementID: prep.StatementID, SessionID: sess.SessionID})
		if st != http.StatusOK {
			t.Fatalf("execute dop=%d: %d %s", dop, st, raw)
		}
		got := decode[executeWire](t, raw)
		if !got.StatementCacheHit {
			t.Fatalf("dop=%d: executed prepared statement did not reuse the plan", dop)
		}
		if !bytes.Equal(bytes.TrimSpace(got.Rows), wantRows.Encoded) {
			t.Fatalf("dop=%d: rows differ from engine result", dop)
		}
		if got.RowCount != len(want.Rows) {
			t.Fatalf("dop=%d: row_count %d, want %d", dop, got.RowCount, len(want.Rows))
		}
	}

	// Execute-by-SQL auto-registers and, on repeat, reuses the plan.
	st, raw = call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
	if st != http.StatusOK {
		t.Fatalf("execute by sql: %d %s", st, raw)
	}
	if got := decode[executeWire](t, raw); !got.StatementCacheHit {
		t.Fatal("execute-by-sql should have found the prepared plan")
	}
}

func TestRepeatedExecuteSkipsReplanning(t *testing.T) {
	eng := testEngine(t, 4000)
	s, ts := testServer(t, eng, Config{})

	st, raw := call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: vipQuery})
	if st != http.StatusOK {
		t.Fatalf("prepare: %d %s", st, raw)
	}
	prep := decode[wire.PrepareResponse](t, raw)
	base := s.reg.stats()
	envBase := s.env.stats()

	const n = 5
	for i := 0; i < n; i++ {
		st, raw = call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{StatementID: prep.StatementID})
		if st != http.StatusOK {
			t.Fatalf("execute %d: %d %s", i, st, raw)
		}
		if got := decode[executeWire](t, raw); !got.StatementCacheHit {
			t.Fatalf("execute %d missed the statement cache", i)
		}
	}
	now := s.reg.stats()
	if now.Hits-base.Hits != n {
		t.Fatalf("statement hits rose by %d, want %d", now.Hits-base.Hits, n)
	}
	if now.Misses != base.Misses || now.Reprepares != base.Reprepares {
		t.Fatalf("repeated execution re-planned: misses %d→%d reprepares %d→%d",
			base.Misses, now.Misses, base.Reprepares, now.Reprepares)
	}
	// Envelope derivation ran at most once (during prepare); repeated
	// executes never touch the envelope cache again.
	if env := s.env.stats(); env.Misses != envBase.Misses {
		t.Fatalf("repeated execution re-derived envelopes (misses %d→%d)", envBase.Misses, env.Misses)
	}
}

func TestEnvelopeCacheSharedAcrossStatements(t *testing.T) {
	eng := testEngine(t, 4000)
	s, ts := testServer(t, eng, Config{})

	if st, raw := call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: vipQuery}); st != http.StatusOK {
		t.Fatalf("prepare: %d %s", st, raw)
	}
	after1 := s.env.stats()
	if after1.Misses == 0 {
		t.Fatal("first prepare should populate the envelope cache")
	}
	// A different statement over the same (model, class) reuses the
	// derived envelope: no new misses.
	other := `SELECT id FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'vip' AND income > 3`
	if st, raw := call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: other}); st != http.StatusOK {
		t.Fatalf("prepare other: %d %s", st, raw)
	}
	after2 := s.env.stats()
	if after2.Hits <= after1.Hits {
		t.Fatal("second statement with the same class set did not hit the envelope cache")
	}
	if after2.Misses != after1.Misses {
		t.Fatalf("second statement re-derived the envelope (misses %d→%d)", after1.Misses, after2.Misses)
	}
}

func TestSessionForceSeqScan(t *testing.T) {
	eng := testEngine(t, 8000)
	_, ts := testServer(t, eng, Config{})

	_, raw := call(t, "POST", ts.URL+"/v1/session", nil)
	sess := decode[sessionResponse](t, raw)
	force := "seqscan"
	if st, raw := call(t, "POST", ts.URL+"/v1/session/"+sess.SessionID+"/settings",
		settingsRequest{ForcePath: &force}); st != http.StatusOK {
		t.Fatalf("settings: %d %s", st, raw)
	}

	st, raw := call(t, "POST", ts.URL+"/v1/execute",
		wire.ExecuteRequest{SQL: vipQuery, SessionID: sess.SessionID})
	if st != http.StatusOK {
		t.Fatalf("execute: %d %s", st, raw)
	}
	forced := decode[executeWire](t, raw)
	if forced.AccessPath != "seqscan" {
		t.Fatalf("forced access path = %q, want seqscan", forced.AccessPath)
	}

	// Unforced execution of the same SQL picks the index and returns
	// the same rows: the hint changes the plan, never the answer.
	st, raw = call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
	if st != http.StatusOK {
		t.Fatalf("execute unforced: %d %s", st, raw)
	}
	free := decode[executeWire](t, raw)
	if free.AccessPath == "seqscan" {
		t.Fatal("fixture must favor an index path for the hint to matter")
	}
	if !bytes.Equal(free.Rows, forced.Rows) {
		t.Fatal("forced seqscan changed the result")
	}
	if free.StatementID == forced.StatementID {
		t.Fatal("hinted and unhinted plans must be distinct registry entries")
	}
}

func TestStatsEndpoint(t *testing.T) {
	eng := testEngine(t, 2000)
	_, ts := testServer(t, eng, Config{})
	if st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery}); st != http.StatusOK {
		t.Fatalf("execute: %d %s", st, raw)
	}
	st, raw := call(t, "GET", ts.URL+"/v1/stats", nil)
	if st != http.StatusOK {
		t.Fatalf("stats: %d %s", st, raw)
	}
	stats := decode[statsResponse](t, raw)
	if stats.Queries != 1 {
		t.Fatalf("queries = %d, want 1", stats.Queries)
	}
	if stats.Prepared.Misses == 0 {
		t.Fatal("prepared.misses must count the first plan build")
	}
	if stats.CatalogEpoch == 0 {
		t.Fatal("catalog epoch should be nonzero after fixture setup")
	}
	if stats.Admission.Workers <= 0 {
		t.Fatal("admission.workers must report the pool size")
	}
}

func TestBadRequests(t *testing.T) {
	eng := testEngine(t, 500)
	_, ts := testServer(t, eng, Config{})
	cases := []struct {
		name string
		body wire.ExecuteRequest
		code string
	}{
		{"neither sql nor id", wire.ExecuteRequest{}, wire.CodeBadRequest},
		{"both sql and id", wire.ExecuteRequest{SQL: "SELECT id FROM customers", StatementID: "q1"}, wire.CodeBadRequest},
		{"unknown statement", wire.ExecuteRequest{StatementID: "q999"}, wire.CodeNotFound},
		{"unknown session", wire.ExecuteRequest{SQL: "SELECT id FROM customers", SessionID: "s999"}, wire.CodeNotFound},
		{"sql parse error", wire.ExecuteRequest{SQL: "SELEC id"}, wire.CodeParse},
		{"unknown table", wire.ExecuteRequest{SQL: "SELECT id FROM nope"}, wire.CodeUnknownTable},
	}
	for _, tc := range cases {
		st, raw := call(t, "POST", ts.URL+"/v1/execute", tc.body)
		if st == http.StatusOK {
			t.Fatalf("%s: got 200", tc.name)
		}
		if got := errCode(t, raw); got != tc.code {
			t.Fatalf("%s: code %q (status %d), want %q", tc.name, got, st, tc.code)
		}
	}
	// Session delete round-trip.
	_, raw := call(t, "POST", ts.URL+"/v1/session", nil)
	sess := decode[sessionResponse](t, raw)
	if st, _ := call(t, "DELETE", ts.URL+"/v1/session/"+sess.SessionID, nil); st != http.StatusOK {
		t.Fatalf("delete session: %d", st)
	}
	if st, raw := call(t, "DELETE", ts.URL+"/v1/session/"+sess.SessionID, nil); st != http.StatusNotFound {
		t.Fatalf("double delete: %d %s", st, raw)
	}
	bad := "index"
	_, raw = call(t, "POST", ts.URL+"/v1/session", nil)
	sess = decode[sessionResponse](t, raw)
	if st, _ := call(t, "POST", ts.URL+"/v1/session/"+sess.SessionID+"/settings",
		settingsRequest{ForcePath: &bad}); st != http.StatusBadRequest {
		t.Fatalf("bad force_path accepted: %d", st)
	}
}

// TestSessionTimeoutApplies pins the per-session timeout: a 1ms budget
// on a query that needs longer must yield a typed timeout.
func TestSessionTimeoutApplies(t *testing.T) {
	eng := testEngine(t, 2000)
	s, ts := testServer(t, eng, Config{})
	// The request deadline starts ticking in the handler before admission;
	// holding the worker past the 1ms budget makes the expiry deterministic
	// instead of racing the scan against the runtime timer. Mid-scan
	// cancellation itself is pinned by the exec-layer deadline tests.
	s.execHook = func() { time.Sleep(20 * time.Millisecond) }
	_, raw := call(t, "POST", ts.URL+"/v1/session", nil)
	sess := decode[sessionResponse](t, raw)
	var ms int64 = 1
	force := "seqscan"
	if st, raw := call(t, "POST", ts.URL+"/v1/session/"+sess.SessionID+"/settings",
		settingsRequest{TimeoutMS: &ms, ForcePath: &force}); st != http.StatusOK {
		t.Fatalf("settings: %d %s", st, raw)
	}
	st, raw := call(t, "POST", ts.URL+"/v1/execute",
		wire.ExecuteRequest{SQL: vipQuery, SessionID: sess.SessionID})
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d %s, want 504", st, raw)
	}
	if got := errCode(t, raw); got != wire.CodeTimeout {
		t.Fatalf("code %q, want %q", got, wire.CodeTimeout)
	}
}

package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"minequery/internal/wire"
)

// TestMetricsEndpoint scrapes /metrics and checks the exposition
// carries both engine and server series, and that query activity moves
// the counters.
func TestMetricsEndpoint(t *testing.T) {
	eng := testEngine(t, 400)
	_, ts := testServer(t, eng, Config{})

	status, raw := call(t, http.MethodGet, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	body := string(raw)
	for _, series := range []string{
		"minequery_queries_total{",
		"minequery_query_stage_seconds_bucket{",
		"minequery_rows_scanned_total",
		"minequery_rows_returned_total",
		"minequeryd_queries_total",
		"minequeryd_admission_admitted_total",
		"minequeryd_prepared_hits_total",
		"minequeryd_envelope_cache_hits_total",
		"minequeryd_slowlog_size",
		"minequeryd_sessions",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("scrape missing %q", series)
		}
	}

	// Run a query, then confirm the server counter moved.
	status, raw = call(t, http.MethodPost, ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
	if status != http.StatusOK {
		t.Fatalf("execute: status %d: %s", status, raw)
	}
	_, raw = call(t, http.MethodGet, ts.URL+"/metrics", nil)
	if !strings.Contains(string(raw), "minequeryd_queries_total 1") {
		t.Errorf("after one query, minequeryd_queries_total should read 1; scrape:\n%s", raw)
	}
	// The prepared path (the only one the server uses) must feed the
	// per-stage latency histograms: one prepare + one execute.
	for _, stage := range []string{"parse", "rewrite", "optimize", "execute"} {
		want := `minequery_query_stage_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(string(raw), want) {
			t.Errorf("after one query, scrape missing %q:\n%s", want, raw)
		}
	}
}

// TestExplainAnalyzeEndpoint checks the one-shot profiled execution:
// report present, per-operator lines rendered, stats populated.
func TestExplainAnalyzeEndpoint(t *testing.T) {
	eng := testEngine(t, 400)
	_, ts := testServer(t, eng, Config{})

	// The budget segment is common, so the plan keeps a seqscan with an
	// envelope-augmented scan-level filter — the shape where attribution
	// is visible (unlike the vip query, which folds to a constant scan).
	budgetQuery := `SELECT id FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'budget' AND customers.age <= 5`
	status, raw := call(t, http.MethodPost, ts.URL+"/v1/explain-analyze",
		wire.ExplainAnalyzeRequest{SQL: budgetQuery})
	if status != http.StatusOK {
		t.Fatalf("explain-analyze: status %d: %s", status, raw)
	}
	resp := decode[wire.ExplainAnalyzeResponse](t, raw)
	if resp.Analyze == "" {
		t.Fatal("analyze report is empty")
	}
	for _, want := range []string{"act_rows=", "est_rows=", "env_rejected=", "execution: path="} {
		if !strings.Contains(resp.Analyze, want) {
			t.Errorf("report missing %q:\n%s", want, resp.Analyze)
		}
	}
	if resp.Plan == "" || resp.AccessPath == "" {
		t.Errorf("plan/access_path missing: %+v", resp)
	}
	if resp.Stats.TupleReads == 0 {
		t.Errorf("stats.tuple_reads = 0, want > 0")
	}

	// Bad SQL gets the typed parse code; unknown table the 404 code.
	status, raw = call(t, http.MethodPost, ts.URL+"/v1/explain-analyze",
		wire.ExplainAnalyzeRequest{SQL: "SELEC nope"})
	if status != http.StatusBadRequest || errCode(t, raw) != wire.CodeParse {
		t.Errorf("parse error: status %d code %s", status, errCode(t, raw))
	}
	status, raw = call(t, http.MethodPost, ts.URL+"/v1/explain-analyze",
		wire.ExplainAnalyzeRequest{SQL: "SELECT id FROM nope"})
	if status != http.StatusNotFound || errCode(t, raw) != wire.CodeUnknownTable {
		t.Errorf("unknown table: status %d code %s", status, errCode(t, raw))
	}
}

// TestSlowlog checks recording against the threshold, normalized SQL
// in entries, newest-first order, and the ring bound.
func TestSlowlog(t *testing.T) {
	eng := testEngine(t, 400)
	// Threshold of 1ns: every query is slow. Ring of 2: third entry
	// evicts the first.
	_, ts := testServer(t, eng, Config{SlowQueryThreshold: time.Nanosecond, SlowLogSize: 2})

	for _, sql := range []string{
		"SELECT id FROM customers WHERE age = 1",
		"SELECT id FROM customers WHERE age = 2",
		"SELECT   ID from customers where AGE = 3",
	} {
		if status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: sql}); status != http.StatusOK {
			t.Fatalf("execute %q: status %d: %s", sql, status, raw)
		}
	}

	status, raw := call(t, http.MethodGet, ts.URL+"/v1/slowlog", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/slowlog: status %d", status)
	}
	resp := decode[slowlogResponse](t, raw)
	if resp.Total != 3 {
		t.Errorf("total = %d, want 3", resp.Total)
	}
	if len(resp.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (ring bound)", len(resp.Entries))
	}
	// Newest first, normalized SQL (lowercased, canonical spacing).
	if got := resp.Entries[0].SQL; got != "select id from customers where age = 3" {
		t.Errorf("entries[0].SQL = %q, want normalized newest query", got)
	}
	if got := resp.Entries[1].SQL; got != "select id from customers where age = 2" {
		t.Errorf("entries[1].SQL = %q, want second-newest query", got)
	}
	for i, e := range resp.Entries {
		if e.Plan == "" || e.AccessPath == "" || e.TupleReads == 0 {
			t.Errorf("entries[%d] incomplete: %+v", i, e)
		}
		if e.Analyze == "" {
			t.Errorf("entries[%d] missing per-operator actuals", i)
		}
	}
}

// TestSlowlogDisabled checks that a negative threshold records nothing.
func TestSlowlogDisabled(t *testing.T) {
	eng := testEngine(t, 400)
	_, ts := testServer(t, eng, Config{SlowQueryThreshold: -1})

	if status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery}); status != http.StatusOK {
		t.Fatalf("execute: status %d: %s", status, raw)
	}
	_, raw := call(t, http.MethodGet, ts.URL+"/v1/slowlog", nil)
	resp := decode[slowlogResponse](t, raw)
	if resp.Total != 0 || len(resp.Entries) != 0 {
		t.Errorf("disabled slowlog recorded entries: %+v", resp)
	}
}

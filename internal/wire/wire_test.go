package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minequery/internal/agg"
)

var update = flag.Bool("update", false, "rewrite testdata/*.json from the current structs")

// body is one exchanged body: a fully-populated value and the zero
// value. The goldens were generated from the structs internal/server,
// internal/cluster and cmd/mqshell each declared before this package
// existed (the encoding side of every mirrored pair), so a passing run
// proves the move changed no byte. execute_request and
// statement_result_models are bodies that first exist here.
type body struct {
	name       string
	full, zero any
}

func bodies() []body {
	ep := int64(42)
	stats := ExecStats{DurationUS: 1234, SeqPageReads: 5, RandPageReads: 6, TupleReads: 789, CostUnits: 12.5}
	schema := []ColumnMeta{{Name: "id", Kind: "INT", Source: "projected"}, {Name: "count(*)", Kind: "INT", Source: "aggregate"}}
	exe := ExecuteResponse{
		StatementID:       "q7",
		StatementCacheHit: true,
		Columns:           []string{"id", "count(*)"},
		Schema:            schema,
		Rows:              RowSet{Encoded: []byte(`[[1,"a<b",2.5,true,null],[2,"x",0.25,false,null]]`), N: 2},
		RowCount:          2,
		Plan:              "SeqScan(customers)",
		AccessPath:        "seqscan",
		PlanChanged:       true,
		EstSelectivity:    0.125,
		Degraded:          true,
		Fallback:          true,
		Retries:           3,
		Stats:             stats,
	}
	partial := &agg.Wire{Groups: []agg.WireGroup{{
		Key:  []agg.WireValue{{K: "i", V: "3"}},
		Accs: []agg.WireAcc{{N: 4, ISum: 10, Num: "1.5", MV: &agg.WireValue{K: "s", V: "z"}}},
	}}}
	prepared := PreparedInfo{StatementID: "cq1", Norm: "select id from customers", ShardsPrepared: 3}
	return []body{
		{"prepare_request", PrepareRequest{SQL: "select id from customers"}, PrepareRequest{}},
		{"prepare_response", PrepareResponse{StatementID: "q7", Cached: true, Plan: "SeqScan(customers)", AccessPath: "seqscan"}, PrepareResponse{}},
		{"execute_request", ExecuteRequest{SQL: "select id from customers", StatementID: "q7", SessionID: "s1", TimeoutMS: 10000, DOP: 4}, ExecuteRequest{}},
		{"execute_response", exe, ExecuteResponse{}},
		{"shard_exec_request", ShardExecRequest{SQL: "select id from customers", ExpectedEpoch: &ep, TimeoutMS: 10000, DOP: 4, AggPartial: true}, ShardExecRequest{}},
		{"shard_exec_response", ShardExecResponse{ExecuteResponse: exe, Epoch: 42, AggPartial: partial}, ShardExecResponse{}},
		{"explain_analyze_request", ExplainAnalyzeRequest{SQL: "select id from customers", TimeoutMS: 10000}, ExplainAnalyzeRequest{}},
		{"explain_analyze_response", ExplainAnalyzeResponse{
			Plan: "SeqScan(customers)", AccessPath: "seqscan", RowCount: 2, EstSelectivity: 0.125,
			RewriteNotes: []string{"envelope: income >= 7"}, Analyze: "SeqScan act_rows=2\n", Stats: stats,
		}, ExplainAnalyzeResponse{}},
		{"exec_request", ExecRequest{SQL: "DELETE FROM customers WHERE id = 1", TimeoutMS: 10000}, ExecRequest{}},
		{"exec_response", ExecResponse{
			Statement: "create model", Table: "customers", RowsAffected: 20, Retrained: []string{"risk_tree"}, Epoch: 42,
			Model:        &ModelBody{Name: "v_seg", Classes: 3, Version: 2},
			RetrainError: "retrain failed: boom",
		}, ExecResponse{}},
		{"shard_info_response", ShardInfoResponse{
			Epoch: 42, Tables: []string{"customers"},
			Models: []ModelInfo{{Name: "risk_tree", Version: 2, Fingerprint: "ab12", PredictColumn: "risk", Classes: []string{"budget", "vip"}}},
		}, ShardInfoResponse{}},
		{"error_envelope", ErrorEnvelope{Error: ErrorBody{Code: CodeEpochMismatch, Message: "catalog epoch moved since the coordinator planned"}}, ErrorEnvelope{}},
		{"coord_execute_response", CoordExecuteResponse{
			StatementID: "cq1",
			Columns:     []string{"id", "count(*)"},
			Schema:      schema,
			Rows:        RowSet{Encoded: []byte(`[[1,"a<b",2.5,true,null]]`), N: 1},
			RowCount:    1,
			Shards:      ShardStats{Planned: 3, Pruned: 1, Queried: 1, Degraded: 1},
			AggMerges:   2,
			Degraded:    true, MissingShards: []int{2}, Notes: []string{"partial result: shards [2] unavailable"},
			Retries: 3, Epoch: 42,
		}, CoordExecuteResponse{}},
		{"statement_result", StatementResult{
			Statement: "insert", Table: "customers", RowsAffected: 20, ShardsWritten: 2, Retrained: []string{"risk_tree"},
			RetrainErrors: []ShardRetrainError{{Shard: 1, Error: "retrain failed: boom"}},
		}, StatementResult{}},
		{"statement_result_models", StatementResult{
			Statement: "create model", Table: "customers", ShardsWritten: 2,
			Models: []ShardModel{
				{Shard: 0, ModelBody: ModelBody{Name: "v_seg", Classes: 3, Version: 1}},
				{Shard: 1, ModelBody: ModelBody{Name: "v_seg", Classes: 2, Version: 1}},
			},
		}, nil},
		{"prepared_info", PreparedInfo{StatementID: "cq1", Cached: true, Norm: "select id from customers", ShardsPrepared: 3}, PreparedInfo{}},
		{"coord_explain_response", CoordExplainResponse{Analyze: "cluster: table=customers\n"}, CoordExplainResponse{}},
		{"cluster_response", ClusterResponse{
			Table: "customers", Column: "income", Mode: "range",
			Shards:   []ShardStatus{{ID: 0, Addr: "http://127.0.0.1:7660", Breaker: "closed", LastEpoch: 42, Models: 2, Range: "[-inf, 3)"}},
			Prepared: []PreparedInfo{prepared},
		}, ClusterResponse{}},
	}
}

func golden(t *testing.T, file string, v any) []byte {
	t.Helper()
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes changed\n got: %s\nwant: %s", file, got, want)
	}
	return want
}

func TestGoldenBodies(t *testing.T) {
	for _, b := range bodies() {
		golden(t, b.name+".full.json", b.full)
		if b.zero != nil {
			golden(t, b.name+".zero.json", b.zero)
		}
	}
}

// TestRoundTrip sends every fully-populated body through the path the
// two ends really use — the server's json.Encoder on one side, Call's
// decode into the same type on the other — and requires the
// decoded value to re-encode to the golden bytes: no field is dropped
// or altered between what a node writes and what a coordinator or shell
// reads. (Before this package the decoding side was a hand-kept subset
// of the encoding struct; a field missing there was lost silently.)
func TestRoundTrip(t *testing.T) {
	for _, b := range bodies() {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(b.full)
		}))
		out := reflect.New(reflect.TypeOf(b.full))
		err := Call(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, out.Interface())
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		golden(t, b.name+".full.json", out.Elem().Interface())
	}
}

// TestErrorCodes pins the code → HTTP status table and the envelope's
// trip through Call, for every code constant.
func TestErrorCodes(t *testing.T) {
	want := map[string]int{
		CodeBadRequest:       400,
		CodeNotFound:         404,
		CodeRejected:         429,
		CodeShuttingDown:     503,
		CodeInternal:         500,
		CodeTimeout:          504,
		CodeCancelled:        499,
		CodeStalePlan:        409,
		CodeParse:            400,
		CodeUnknownTable:     404,
		CodeUnknownModel:     404,
		CodeTransient:        503,
		CodeUnsupportedQuery: 400,
		CodeEpochMismatch:    409,
		CodeShardUnavailable: 502,
	}
	if len(want) != len(statuses) {
		t.Fatalf("status table has %d codes, test pins %d", len(statuses), len(want))
	}
	for code, status := range want {
		if got := Status(code); got != status {
			t.Errorf("Status(%q) = %d, want %d", code, got, status)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(Status(code))
			_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: "why"}})
		}))
		err := Call(context.Background(), srv.Client(), http.MethodPost, srv.URL, PrepareRequest{SQL: "x"}, &PrepareResponse{})
		srv.Close()
		var we *Error
		if !errors.As(err, &we) || *we != (Error{Status: status, Code: code, Message: "why"}) {
			t.Errorf("%s: Call returned %#v, want the envelope back", code, err)
		}
	}
	if got := Status("no_such_code"); got != 500 {
		t.Errorf("unknown code status = %d, want 500", got)
	}
}

// TestCallNonEnvelope: a non-200 whose body is not an envelope (a
// proxy's error page) still comes back typed, with the body truncated.
func TestCallNonEnvelope(t *testing.T) {
	page := bytes.Repeat([]byte("x"), 500)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		_, _ = w.Write(page)
	}))
	defer srv.Close()
	err := Call(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &PrepareResponse{})
	var we *Error
	if !errors.As(err, &we) || we.Status != http.StatusBadGateway || we.Code != "" || len(we.Message) != 203 {
		t.Fatalf("Call returned %#v", err)
	}
}

// TestCallDecodesStreamedBody: a 200 is read whole and decoded — the
// encoder's trailing newline included — and a body that breaks off or
// is not JSON fails naming the step that failed.
func TestCallDecodesStreamedBody(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		length     int // Content-Length to announce; 0 announces len(body)
		want       string
	}{
		{"trailing newline", `{"statement_id":"q7","cached":true}` + "\n", 0, ""},
		{"trailing blank lines", `{"statement_id":"q7","cached":true}` + "\n\n\n", 0, ""},
		{"short read", `{"statement_id":"q7",`, 100, "read response: "},
		{"not json", `{"statement_id":q7}`, 0, "decode response: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := tc.length
				if n == 0 {
					n = len(tc.body)
				}
				w.Header().Set("Content-Length", strconv.Itoa(n))
				_, _ = io.WriteString(w, tc.body)
			}))
			defer srv.Close()
			var out PrepareResponse
			err := Call(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &out)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Call: %v", err)
			case tc.want == "" && (out.StatementID != "q7" || !out.Cached):
				t.Fatalf("decoded %+v", out)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
				t.Fatalf("Call returned %v, want an error starting %q", err, tc.want)
			}
		})
	}
}

// TestCallErrorEnvelope: a non-200 envelope comes back as *Error
// carrying the envelope's code and message.
func TestCallErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: CodeStalePlan, Message: "re-prepare"}})
	}))
	defer srv.Close()
	err := Call(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &PrepareResponse{})
	var we *Error
	if !errors.As(err, &we) || *we != (Error{Status: http.StatusConflict, Code: CodeStalePlan, Message: "re-prepare"}) {
		t.Fatalf("Call returned %#v", err)
	}
}

// TestCallReusesConnection: two sequential Calls to one server open one
// connection. The handler flushes the value and ends the body only
// later, as a large chunked answer does: Call must read on to the body's
// end, or the client closes the connection and dials again.
func TestCallReusesConnection(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(PrepareResponse{StatementID: "q1"})
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	for i := 0; i < 2; i++ {
		var out PrepareResponse
		if err := Call(context.Background(), srv.Client(), http.MethodPost, srv.URL, PrepareRequest{SQL: "x"}, &out); err != nil || out.StatementID != "q1" {
			t.Fatalf("call %d: %+v, %v", i, out, err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("two sequential calls opened %d connections, want 1", n)
	}
}

// TestModelsDigest: the digest follows each model's name and
// fingerprint, their order and the boundary between the two, and nothing
// else a ModelInfo carries.
func TestModelsDigest(t *testing.T) {
	base := []ModelInfo{{Name: "a", Fingerprint: "01", Version: 1}, {Name: "b", Fingerprint: "02"}}
	d := ModelsDigest(base)
	same := []ModelInfo{{Name: "a", Fingerprint: "01", Version: 7, Classes: []string{"x"}}, {Name: "b", Fingerprint: "02"}}
	if got := ModelsDigest(same); got != d {
		t.Fatalf("a version or class list changed the digest: %s vs %s", got, d)
	}
	for name, other := range map[string][]ModelInfo{
		"fingerprint": {{Name: "a", Fingerprint: "01"}, {Name: "b", Fingerprint: "03"}},
		"order":       {{Name: "b", Fingerprint: "02"}, {Name: "a", Fingerprint: "01"}},
		"boundary":    {{Name: "a0", Fingerprint: "1"}, {Name: "b", Fingerprint: "02"}},
		"one fewer":   {{Name: "a", Fingerprint: "01"}},
		"none":        nil,
	} {
		if ModelsDigest(other) == d {
			t.Errorf("%s: the digest did not change", name)
		}
	}
}

package cluster_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"minequery/internal/cluster"
	"minequery/internal/wire"
)

// A node and a coordinator decode the same request bodies, and each
// refuses the one field it cannot honour instead of ignoring it: the
// coordinator has no sessions (so no session-carried dop, force_path or
// timeout), a node takes dop from the session, not the request, and a
// shard takes a statement as its text, never by a node's statement id.
func TestRequestFieldsRefusedNotIgnored(t *testing.T) {
	tc := newTestCluster(t, 2, []int64{4}, 200, cluster.Config{})
	ch := bootCoordHTTP(t, tc)
	const q = "SELECT id FROM customers WHERE income < 2"
	cases := []struct {
		name, url, path string
		body            any
		wantMsg         string
	}{
		{"coord execute", ch.URL, "/v1/execute", wire.ExecuteRequest{SQL: q, SessionID: "s1"}, "no sessions"},
		{"coord prepare", ch.URL, "/v1/prepare", wire.PrepareRequest{SQL: q, SessionID: "s1"}, "no sessions"},
		{"coord exec", ch.URL, "/v1/exec", wire.ExecRequest{SQL: "DELETE FROM customers WHERE id = -1", SessionID: "s1"}, "no sessions"},
		{"coord explain-analyze", ch.URL, "/v1/explain-analyze", wire.ExplainAnalyzeRequest{SQL: q, SessionID: "s1"}, "no sessions"},
		{"node execute dop", tc.unionHTTP.URL, "/v1/execute", wire.ExecuteRequest{SQL: q, DOP: 2}, "dop"},
		{"shard-exec statement_id", tc.https[0].URL, "/v1/shard-exec", map[string]any{"statement_id": "q1"}, "statement_id"},
	}
	for _, c := range cases {
		st, raw := postJSON(t, c.url, c.path, c.body)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %v: %s", c.name, err, raw)
		}
		if st != http.StatusBadRequest || env.Error.Code != wire.CodeBadRequest || !strings.Contains(env.Error.Message, c.wantMsg) {
			t.Errorf("%s: got %d %s, want 400 %s mentioning %q", c.name, st, raw, wire.CodeBadRequest, c.wantMsg)
		}
	}
	// The same bodies without the refused field are served.
	for _, c := range []struct {
		url, path string
		body      any
	}{
		{ch.URL, "/v1/execute", wire.ExecuteRequest{SQL: q, DOP: 2}},
		{tc.unionHTTP.URL, "/v1/execute", wire.ExecuteRequest{SQL: q}},
		{tc.https[0].URL, "/v1/shard-exec", wire.ShardExecRequest{SQL: q}},
	} {
		if st, raw := postJSON(t, c.url, c.path, c.body); st != http.StatusOK {
			t.Errorf("%s: %d %s", c.path, st, raw)
		}
	}
}

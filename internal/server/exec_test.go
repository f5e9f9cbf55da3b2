package server

import (
	"net/http"
	"testing"

	"minequery/internal/wire"
)

type execWire struct {
	Statement    string   `json:"statement"`
	Table        string   `json:"table"`
	RowsAffected int64    `json:"rows_affected"`
	Retrained    []string `json:"retrained"`
	Epoch        int64    `json:"epoch"`
	Model        *struct {
		Name    string `json:"name"`
		Classes int    `json:"classes"`
		Version int64  `json:"version"`
	} `json:"model"`
}

// TestExecEndpoint drives the write path over HTTP: insert rows, see
// them from a query, update and delete them, and train a model with
// CREATE MODEL — all through POST /v1/exec.
func TestExecEndpoint(t *testing.T) {
	eng := testEngine(t, 2000)
	_, ts := testServer(t, eng, Config{})

	status, raw := call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "INSERT INTO customers (id, age, income, segment) VALUES (90001, 3, 5, 'regular'), (90002, 4, 6, 'budget')",
	})
	if status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, raw)
	}
	ins := decode[execWire](t, raw)
	if ins.Statement != "insert" || ins.RowsAffected != 2 {
		t.Fatalf("insert response: %+v", ins)
	}

	status, raw = call(t, "POST", ts.URL+"/v1/execute", map[string]any{
		"sql": "SELECT id FROM customers WHERE id >= 90001",
	})
	if status != http.StatusOK {
		t.Fatalf("select: status %d: %s", status, raw)
	}
	if sel := decode[executeWire](t, raw); sel.RowCount != 2 {
		t.Fatalf("expected 2 inserted rows visible, got %d", sel.RowCount)
	}

	status, raw = call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "UPDATE customers SET segment = 'vip' WHERE id = 90001",
	})
	if status != http.StatusOK {
		t.Fatalf("update: status %d: %s", status, raw)
	}
	if upd := decode[execWire](t, raw); upd.RowsAffected != 1 {
		t.Fatalf("update response: %+v", upd)
	}

	status, raw = call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "DELETE FROM customers WHERE id >= 90001",
	})
	if status != http.StatusOK {
		t.Fatalf("delete: status %d: %s", status, raw)
	}
	if del := decode[execWire](t, raw); del.RowsAffected != 2 {
		t.Fatalf("delete response: %+v", del)
	}

	status, raw = call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "CREATE MODEL segtree ON customers PREDICT segment USING dtree",
	})
	if status != http.StatusOK {
		t.Fatalf("create model: status %d: %s", status, raw)
	}
	cm := decode[execWire](t, raw)
	if cm.Statement != "create model" || cm.Model == nil || cm.Model.Name != "segtree" || cm.Model.Classes == 0 {
		t.Fatalf("create model response: %+v", cm)
	}

	// The new model is immediately queryable via PREDICTION JOIN.
	status, raw = call(t, "POST", ts.URL+"/v1/execute", map[string]any{
		"sql": `SELECT id FROM customers
			PREDICTION JOIN segtree AS m ON m.age = customers.age AND m.income = customers.income
			WHERE m.segment = 'budget' LIMIT 5`,
	})
	if status != http.StatusOK {
		t.Fatalf("predict query: status %d: %s", status, raw)
	}
}

// TestExecEndpointErrors checks the write path speaks the server's
// error taxonomy.
func TestExecEndpointErrors(t *testing.T) {
	eng := testEngine(t, 500)
	_, ts := testServer(t, eng, Config{})

	for _, tc := range []struct {
		sql    string
		status int
		code   string
	}{
		{"INSERT INTO customers VALUES (", http.StatusBadRequest, wire.CodeParse},
		{"DROP TABLE customers", http.StatusBadRequest, wire.CodeUnsupportedQuery},
		{"SELECT id FROM customers", http.StatusBadRequest, wire.CodeUnsupportedQuery},
		{"DELETE FROM nope", http.StatusNotFound, wire.CodeUnknownTable},
		{"CREATE MODEL m ON customers PREDICT segment USING svm", http.StatusBadRequest, wire.CodeUnsupportedQuery},
	} {
		status, raw := call(t, "POST", ts.URL+"/v1/exec", map[string]any{"sql": tc.sql})
		if status != tc.status || errCode(t, raw) != tc.code {
			t.Errorf("%q: got status %d code %s, want %d %s (%s)",
				tc.sql, status, errCode(t, raw), tc.status, tc.code, raw)
		}
	}
}

package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"minequery"
	"minequery/internal/wire"
)

type subscribeWire struct {
	SubscriptionID int64  `json:"subscription_id"`
	Table          string `json:"table"`
}

type notificationsWire struct {
	Notifications []struct {
		Seq            int64    `json:"seq"`
		SubscriptionID int64    `json:"subscription_id"`
		Table          string   `json:"table"`
		Columns        []string `json:"columns"`
		Row            []any    `json:"row"`
		Epoch          int64    `json:"epoch"`
	} `json:"notifications"`
	Count int `json:"count"`
}

type subscriptionsWire struct {
	Subscriptions []struct {
		ID    int64  `json:"id"`
		SQL   string `json:"sql"`
		Table string `json:"table"`
	} `json:"subscriptions"`
	Stats struct {
		Registered int   `json:"registered"`
		Matches    int64 `json:"matches"`
		Evals      int64 `json:"evals"`
		Dropped    int64 `json:"dropped"`
	} `json:"stats"`
}

// TestStandingEndpoints drives the full standing-query surface over
// HTTP: subscribe, commit writes through /v1/exec, long-poll the
// notifications, list subscriptions, unsubscribe.
func TestStandingEndpoints(t *testing.T) {
	eng := testEngine(t, 500)
	_, ts := testServer(t, eng, Config{})

	status, raw := call(t, "POST", ts.URL+"/v1/subscribe", map[string]any{
		"sql": "SELECT id, income FROM customers WHERE income >= 7",
	})
	if status != http.StatusOK {
		t.Fatalf("subscribe: status %d: %s", status, raw)
	}
	sub := decode[subscribeWire](t, raw)
	if sub.SubscriptionID <= 0 || sub.Table != "customers" {
		t.Fatalf("subscribe response: %+v", sub)
	}

	status, raw = call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "INSERT INTO customers (id, age, income, segment) VALUES (80001, 1, 7, 'regular'), (80002, 2, 3, 'budget')",
	})
	if status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, raw)
	}

	status, raw = call(t, "GET", ts.URL+"/v1/notifications?timeout_ms=2000", nil)
	if status != http.StatusOK {
		t.Fatalf("notifications: status %d: %s", status, raw)
	}
	nw := decode[notificationsWire](t, raw)
	if nw.Count != 1 || len(nw.Notifications) != 1 {
		t.Fatalf("notifications: %+v", nw)
	}
	n := nw.Notifications[0]
	if n.SubscriptionID != sub.SubscriptionID || n.Table != "customers" ||
		len(n.Row) != 2 || n.Row[0].(float64) != 80001 || n.Row[1].(float64) != 7 {
		t.Fatalf("notification: %+v", n)
	}

	// An idle poll times out into a 200 with an empty batch, not an
	// error — long-poll clients just re-poll.
	status, raw = call(t, "GET", ts.URL+"/v1/notifications?timeout_ms=50", nil)
	if status != http.StatusOK {
		t.Fatalf("idle poll: status %d: %s", status, raw)
	}
	if idle := decode[notificationsWire](t, raw); idle.Count != 0 {
		t.Fatalf("idle poll returned %+v", idle)
	}

	status, raw = call(t, "GET", ts.URL+"/v1/subscriptions", nil)
	if status != http.StatusOK {
		t.Fatalf("subscriptions: status %d: %s", status, raw)
	}
	ls := decode[subscriptionsWire](t, raw)
	if ls.Stats.Registered != 1 || len(ls.Subscriptions) != 1 || ls.Subscriptions[0].ID != sub.SubscriptionID {
		t.Fatalf("subscriptions: %+v", ls)
	}
	// One of the two inserted rows was pruned by the interval index
	// before reaching predicate evaluation, so evals is 1, not 2.
	if ls.Stats.Matches != 1 || ls.Stats.Evals != 1 {
		t.Fatalf("stats: %+v", ls.Stats)
	}

	status, raw = call(t, "DELETE", fmt.Sprintf("%s/v1/subscribe/%d", ts.URL, sub.SubscriptionID), nil)
	if status != http.StatusOK {
		t.Fatalf("unsubscribe: status %d: %s", status, raw)
	}
	status, raw = call(t, "DELETE", fmt.Sprintf("%s/v1/subscribe/%d", ts.URL, sub.SubscriptionID), nil)
	if status != http.StatusNotFound || errCode(t, raw) != wire.CodeNotFound {
		t.Fatalf("unknown unsubscribe: status %d code %s: %s", status, errCode(t, raw), raw)
	}
}

// TestStandingEndpointErrors checks the subscribe surface speaks the
// error taxonomy.
func TestStandingEndpointErrors(t *testing.T) {
	eng := testEngine(t, 200)
	_, ts := testServer(t, eng, Config{})

	for _, tc := range []struct {
		name   string
		body   map[string]any
		status int
		code   string
	}{
		{"empty sql", map[string]any{"sql": ""}, http.StatusBadRequest, wire.CodeBadRequest},
		{"parse error", map[string]any{"sql": "SELECT FROM WHERE"}, http.StatusBadRequest, wire.CodeParse},
		{"unknown table", map[string]any{"sql": "SELECT * FROM nope WHERE id = 1"}, http.StatusNotFound, wire.CodeUnknownTable},
		{"not a select", map[string]any{"sql": "DELETE FROM customers WHERE id = 1"}, http.StatusBadRequest, wire.CodeParse},
	} {
		status, raw := call(t, "POST", ts.URL+"/v1/subscribe", tc.body)
		if status != tc.status || errCode(t, raw) != tc.code {
			t.Errorf("%s: got status %d code %s, want %d %s (%s)",
				tc.name, status, errCode(t, raw), tc.status, tc.code, raw)
		}
	}

	status, raw := call(t, "DELETE", ts.URL+"/v1/subscribe/abc", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("non-numeric id: status %d: %s", status, raw)
	}
	status, raw = call(t, "GET", ts.URL+"/v1/notifications?timeout_ms=-1", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("negative timeout: status %d: %s", status, raw)
	}
	status, raw = call(t, "GET", ts.URL+"/v1/notifications?timeout_ms=100&max=0", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("zero max: status %d: %s", status, raw)
	}
}

// TestExecRetrainErrorPartialSuccess pins the half-commit wire
// contract: a committed statement whose triggered retrain failed comes
// back as a 200 carrying BOTH rows_affected and retrain_error — a 5xx
// here would invite clients to re-issue an already-applied write.
func TestExecRetrainErrorPartialSuccess(t *testing.T) {
	eng := testEngine(t, 200)
	_, ts := testServer(t, eng, Config{})

	// A model whose training view is income >= 7; deleting those rows
	// makes the next retrain fail on an empty train set.
	status, raw := call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "CREATE MODEL vm ON customers PREDICT segment USING dtree AS SELECT age, segment FROM customers WHERE income >= 7",
	})
	if status != http.StatusOK {
		t.Fatalf("create model: status %d: %s", status, raw)
	}
	eng.SetRetrainPolicy(minequery.RetrainPolicy{WriteThreshold: 1})

	status, raw = call(t, "POST", ts.URL+"/v1/exec", map[string]any{
		"sql": "DELETE FROM customers WHERE income >= 7",
	})
	if status != http.StatusOK {
		t.Fatalf("committed delete with failed retrain: status %d, want 200: %s", status, raw)
	}
	res := decode[struct {
		RowsAffected int64  `json:"rows_affected"`
		RetrainError string `json:"retrain_error"`
		Epoch        int64  `json:"epoch"`
	}](t, raw)
	if res.RowsAffected == 0 {
		t.Fatalf("rows_affected missing from partial-success response: %s", raw)
	}
	if res.RetrainError == "" {
		t.Fatalf("retrain_error missing from partial-success response: %s", raw)
	}

	// The delete really committed.
	status, raw = call(t, "POST", ts.URL+"/v1/execute", map[string]any{
		"sql": "SELECT id FROM customers WHERE income >= 7",
	})
	if status != http.StatusOK {
		t.Fatalf("verify query: status %d: %s", status, raw)
	}
	if sel := decode[executeWire](t, raw); sel.RowCount != 0 {
		t.Fatalf("rows survived the committed delete: %d", sel.RowCount)
	}
}

// TestPollWaitClamped: a long poll waits 10s by default and at most a
// minute, however large timeout_ms is. Past about 9.2e12 ms the
// Duration overflowed to a negative wait, and the poll answered an
// empty 200 at once.
func TestPollWaitClamped(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 10 * time.Second},
		{"0", 0},
		{"250", 250 * time.Millisecond},
		{"60000", time.Minute},
		{"60001", time.Minute},
		{"10000000000000", time.Minute},
		{strconv.FormatInt(math.MaxInt64, 10), time.Minute},
	} {
		if got, err := pollWait(tc.in); err != nil || got != tc.want {
			t.Errorf("pollWait(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"-1", "1.5", "soon", "9223372036854775808"} {
		var api *apiError
		if _, err := pollWait(in); !errors.As(err, &api) || api.code != wire.CodeBadRequest {
			t.Errorf("pollWait(%q) = %v, want a bad request", in, err)
		}
	}
}

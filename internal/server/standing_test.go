package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"minequery"
	"minequery/internal/standing"
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

// TestAllocNotificationsBodyPerRow: notificationsBody encodes each Image
// once, whatever number of notifications share it; a body of distinct
// Images costs no more than encoding every notification's row itself;
// and either body is byte-identical to that.
func TestAllocNotificationsBodyPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// rows rows, each matched by perRow subscriptions over two select
	// lists, queued together as EvalBatch queues one row's matches. With
	// distinct set, every notification has its own Image.
	build := func(rows, perRow int, distinct bool) []minequery.Notification {
		src := make([]*standing.Source, perRow)
		for j := range src {
			src[j] = &standing.Source{SubID: int64(j + 1), Table: "events", Columns: []string{"id", "name"}}
		}
		var ns []minequery.Notification
		for i := 0; i < rows; i++ {
			row := minequery.Tuple{minequery.Int(int64(i)), minequery.Str(fmt.Sprintf("r%d", i))}
			imgs := []*standing.Image{{Row: row, Epoch: 3}, {Row: row[:1], Epoch: 3}}
			for j := 0; j < perRow; j++ {
				img := imgs[j%2]
				if distinct {
					img = &standing.Image{Row: img.Row, Epoch: img.Epoch}
				}
				ns = append(ns, minequery.Notification{Seq: int64(len(ns) + 1), Source: src[j], Image: img})
			}
		}
		return ns
	}
	// encodeEach is the body that encodes every notification's row.
	encodeEach := func(ns []minequery.Notification) notificationsResponse {
		body := notificationsResponse{Notifications: make([]notificationBody, len(ns)), Count: len(ns)}
		for i, n := range ns {
			row, err := wire.AppendRow(nil, n.Row)
			if err != nil {
				t.Fatal(err)
			}
			body.Notifications[i] = notificationBody{
				Seq: n.Seq, SubscriptionID: n.SubID, Table: n.Table, Columns: n.Columns, Row: row, Epoch: n.Epoch,
			}
		}
		return body
	}
	body := func(ns []minequery.Notification) notificationsResponse {
		b, err := notificationsBody(ns)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// bytesPerRun is the least a run allocated over a few rounds.
	bytesPerRun := func(f func()) uint64 {
		const rounds, n = 5, 20
		least := uint64(math.MaxUint64)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				f()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		return least
	}

	few, many := build(10, 4, false), build(10, 40, false)
	fewAllocs := testing.AllocsPerRun(20, func() { body(few) })
	manyAllocs := testing.AllocsPerRun(20, func() { body(many) })
	t.Logf("%.0f allocations for %d notifications of 10 rows, %.0f for %d", fewAllocs, len(few), manyAllocs, len(many))
	if manyAllocs != fewAllocs {
		t.Fatalf("%d notifications of 10 rows allocate %.0f times, %d of them %.0f: a shared row is encoded more than once",
			len(many), manyAllocs, len(few), fewAllocs)
	}
	if got := body(few); &got.Notifications[0].Row[0] != &got.Notifications[2].Row[0] {
		t.Error("two notifications of one Image hold two encodings")
	}

	for _, ns := range [][]minequery.Notification{many, build(400, 2, true)} {
		got, want := bytesPerRun(func() { body(ns) }), bytesPerRun(func() { encodeEach(ns) })
		t.Logf("%d notifications: %d B, %d B encoding every row", len(ns), got, want)
		if got > want {
			t.Errorf("%d notifications allocate %d B, more than the %d B of encoding every row", len(ns), got, want)
		}
		gotRaw, err := json.Marshal(body(ns))
		if err != nil {
			t.Fatal(err)
		}
		wantRaw, err := json.Marshal(encodeEach(ns))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("body\n%s\nwant\n%s", gotRaw, wantRaw)
		}
	}
}

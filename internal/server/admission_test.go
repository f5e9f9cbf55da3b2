package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/wire"
)

// gateServer builds a server whose executions block at the execHook
// seam (after admission, before the engine runs) until gate is closed.
// entered receives one value per request that reached the hook, so
// tests can sequence assertions against a request that is provably
// holding a worker slot.
func gateServer(t *testing.T, eng *minequery.Engine, cfg Config) (srv *Server, url string, gate chan struct{}, entered chan struct{}) {
	t.Helper()
	s, ts := testServer(t, eng, cfg)
	gate = make(chan struct{})
	entered = make(chan struct{}, 16)
	s.execHook = func() {
		entered <- struct{}{}
		<-gate
	}
	return s, ts.URL, gate, entered
}

// TestAdmissionQueueFullRejects: with one worker and no queue, a second
// concurrent query is shed immediately with the typed rejection, and
// the first still completes once unblocked.
func TestAdmissionQueueFullRejects(t *testing.T) {
	eng := testEngine(t, 1000)
	_, url, gate, entered := gateServer(t, eng, Config{Workers: 1, QueueDepth: -1})

	type outcome struct {
		st  int
		raw []byte
	}
	firstDone := make(chan outcome, 1)
	go func() {
		st, raw := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
		firstDone <- outcome{st, raw}
	}()
	<-entered // first request holds the only worker slot

	st, raw := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
	if st != http.StatusTooManyRequests {
		t.Fatalf("second query: %d %s, want 429", st, raw)
	}
	if got := errCode(t, raw); got != wire.CodeRejected {
		t.Fatalf("second query code %q, want %q", got, wire.CodeRejected)
	}

	close(gate)
	if out := <-firstDone; out.st != http.StatusOK {
		t.Fatalf("gated query after release: %d %s", out.st, out.raw)
	}
	stats := serverStats(t, url)
	if stats.Admission.Rejected != 1 || stats.Admission.Admitted != 1 {
		t.Fatalf("admission stats %+v; want admitted=1 rejected=1", stats.Admission)
	}
}

// TestAdmissionQueuedRequestRuns: with queue depth available, the
// overflow request waits instead of being rejected and runs once the
// slot frees up.
func TestAdmissionQueuedRequestRuns(t *testing.T) {
	eng := testEngine(t, 1000)
	_, url, gate, entered := gateServer(t, eng, Config{Workers: 1, QueueDepth: 4})

	var wg sync.WaitGroup
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _ := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
			results <- st
		}()
	}
	<-entered // one request executing; the other is queued or about to be
	close(gate)
	wg.Wait()
	close(results)
	for st := range results {
		if st != http.StatusOK {
			t.Fatalf("query finished with %d; want both 200", st)
		}
	}
	stats := serverStats(t, url)
	if stats.Admission.Admitted != 2 || stats.Admission.Rejected != 0 {
		t.Fatalf("admission stats %+v; want admitted=2 rejected=0", stats.Admission)
	}
}

// TestQueuedRequestHonoursDeadline: a request stuck in the admission
// queue gives up when its own deadline expires, as a typed timeout.
func TestQueuedRequestHonoursDeadline(t *testing.T) {
	eng := testEngine(t, 1000)
	_, url, gate, entered := gateServer(t, eng, Config{Workers: 1, QueueDepth: 4})

	blocked := make(chan struct{})
	go func() {
		call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
		close(blocked)
	}()
	<-entered

	st, raw := call(t, "POST", url+"/v1/execute",
		wire.ExecuteRequest{SQL: vipQuery, TimeoutMS: 20})
	if st != http.StatusGatewayTimeout {
		t.Fatalf("queued query: %d %s, want 504", st, raw)
	}
	if got := errCode(t, raw); got != wire.CodeTimeout {
		t.Fatalf("queued query code %q, want %q", got, wire.CodeTimeout)
	}
	close(gate)
	<-blocked
}

// TestGracefulShutdownDrains: Shutdown lets the in-flight query finish,
// refuses new work with the typed shutting-down error, and flips
// healthz to draining.
func TestGracefulShutdownDrains(t *testing.T) {
	eng := testEngine(t, 1000)
	s, url, gate, entered := gateServer(t, eng, Config{Workers: 2})

	type outcome struct {
		st  int
		raw []byte
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, raw := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
		inflight <- outcome{st, raw}
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Wait until the drain is observable, then pin the draining behavior.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := call(t, "GET", url+"/healthz", nil); st == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	st, raw := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
	if st != http.StatusServiceUnavailable {
		t.Fatalf("execute during drain: %d %s, want 503", st, raw)
	}
	if got := errCode(t, raw); got != wire.CodeShuttingDown {
		t.Fatalf("execute during drain code %q, want %q", got, wire.CodeShuttingDown)
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v while a query was still in flight", err)
	default:
	}

	close(gate)
	if out := <-inflight; out.st != http.StatusOK {
		t.Fatalf("in-flight query during drain: %d %s, want 200", out.st, out.raw)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadlineExpires: if the drain context expires before
// in-flight work finishes, Shutdown reports it instead of hanging.
func TestShutdownDeadlineExpires(t *testing.T) {
	eng := testEngine(t, 1000)
	s, url, gate, entered := gateServer(t, eng, Config{Workers: 1})

	done := make(chan struct{})
	go func() {
		call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
		close(done)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil with a query still gated")
	}
	close(gate)
	<-done
}

// testCoord starts a coordinator over the one shard at shardURL, its
// planner a testEngine, and returns it with its URL.
func testCoord(t *testing.T, shardURL string) (*CoordServer, string) {
	t.Helper()
	m, err := cluster.NewRangeMap("customers", "income", nil, []string{shardURL})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCoord(cluster.New(testEngine(t, 1000), m, cluster.Config{}), 0)
	ts := httptest.NewServer(cs.Handler())
	t.Cleanup(ts.Close)
	return cs, ts.URL
}

// TestCoordShutdownDrains: a coordinator's Shutdown lets the fan-out in
// flight finish, refuses new statements with the typed shutting-down
// error, flips healthz to draining, and keeps its status endpoints
// answering.
func TestCoordShutdownDrains(t *testing.T) {
	_, shardURL, gate, entered := gateServer(t, testEngine(t, 1000), Config{})
	cs, url := testCoord(t, shardURL)
	const q = `SELECT id FROM customers WHERE age = 3`

	type outcome struct {
		st  int
		raw []byte
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, raw := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: q})
		inflight <- outcome{st, raw}
	}()
	<-entered // the fan-out is held at its shard

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- cs.Shutdown(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st, raw := call(t, "GET", url+"/healthz", nil)
		if st == http.StatusServiceUnavailable {
			if got := decode[map[string]string](t, raw)["status"]; got != "draining" {
				t.Fatalf("healthz during drain: %s, want status draining", raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	st, raw := call(t, "POST", url+"/v1/execute", wire.ExecuteRequest{SQL: q})
	if st != http.StatusServiceUnavailable || errCode(t, raw) != wire.CodeShuttingDown {
		t.Fatalf("execute during drain: %d %s, want 503 %s", st, raw, wire.CodeShuttingDown)
	}
	for _, path := range []string{"/v1/cluster", "/v1/stats"} {
		if st, raw := call(t, "GET", url+path, nil); st != http.StatusOK {
			t.Fatalf("%s during drain: %d %s, want 200", path, st, raw)
		}
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v while a fan-out was still in flight", err)
	default:
	}

	close(gate)
	if out := <-inflight; out.st != http.StatusOK {
		t.Fatalf("in-flight fan-out during drain: %d %s, want 200", out.st, out.raw)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestDrainGuardsEndpoints pins which endpoints a drain refuses: on both
// surfaces every endpoint that takes work answers 503 shutting_down, and
// the scrape and status endpoints keep answering (healthz with its own
// 503 draining).
func TestDrainGuardsEndpoints(t *testing.T) {
	s, ts := testServer(t, testEngine(t, 1000), Config{})
	cs, curl := testCoord(t, ts.URL)
	for _, surface := range []struct {
		name          string
		url           string
		shutdown      func(context.Context) error
		guarded, bare []string
	}{
		{"node", ts.URL, s.Shutdown, []string{
			"POST /v1/session",
			"DELETE /v1/session/s1",
			"POST /v1/session/s1/settings",
			"POST /v1/prepare",
			"POST /v1/execute",
			"POST /v1/exec",
			"POST /v1/explain-analyze",
			"POST /v1/subscribe",
			"DELETE /v1/subscribe/1",
			"GET /v1/subscriptions",
			"GET /v1/notifications",
			"POST /v1/shard-exec",
			"GET /v1/shard-info",
		}, []string{"GET /v1/slowlog", "GET /v1/stats", "GET /metrics", "GET /healthz"}},
		{"coordinator", curl, cs.Shutdown, []string{
			"POST /v1/execute",
			"POST /v1/exec",
			"POST /v1/prepare",
			"POST /v1/explain-analyze",
		}, []string{"GET /v1/cluster", "GET /v1/stats", "GET /metrics", "GET /healthz"}},
	} {
		if err := surface.shutdown(context.Background()); err != nil {
			t.Fatalf("%s: Shutdown with nothing in flight: %v", surface.name, err)
		}
		for _, ep := range surface.guarded {
			method, path, _ := strings.Cut(ep, " ")
			if st, raw := call(t, method, surface.url+path, nil); st != http.StatusServiceUnavailable || errCode(t, raw) != wire.CodeShuttingDown {
				t.Errorf("%s %s during drain: %d %s, want 503 %s", surface.name, ep, st, raw, wire.CodeShuttingDown)
			}
		}
		for _, ep := range surface.bare {
			method, path, _ := strings.Cut(ep, " ")
			want := http.StatusOK
			if path == "/healthz" {
				want = http.StatusServiceUnavailable
			}
			if st, raw := call(t, method, surface.url+path, nil); st != want || bytes.Contains(raw, []byte(wire.CodeShuttingDown)) {
				t.Errorf("%s %s during drain: %d %s, want %d", surface.name, ep, st, raw, want)
			}
		}
	}
}

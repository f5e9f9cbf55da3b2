package server

// Server-layer chaos: circuit-breaker trip and half-open recovery under
// a persistently failing index path, admission-site fault injection,
// and slow-log ring behavior under wraparound and concurrent scrapes.
// Like the engine-level suite in internal/fault, every scenario asserts
// correct rows or a typed error — never a silently wrong answer.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"minequery"
	"minequery/internal/wire"
)

// chaosWire extends executeWire with the resilience fields.
type chaosWire struct {
	Rows       json.RawMessage `json:"rows"`
	RowCount   int             `json:"row_count"`
	AccessPath string          `json:"access_path"`
	Degraded   bool            `json:"degraded"`
	Fallback   bool            `json:"fallback"`
}

// seekKiller makes every index seek fail; with retries off the engine
// falls back to the baseline scan on each query, which is exactly the
// failure signal the breaker counts.
func seekKiller() *minequery.FaultInjector {
	return minequery.NewFaultInjector(1,
		minequery.FaultRule{Site: minequery.FaultSiteIndexSeek, EveryN: 1, Err: minequery.ErrInjected})
}

func TestBreakerTripsToDegradedMode(t *testing.T) {
	eng := testEngine(t, 6000)
	eng.SetRetryPolicy(minequery.RetryPolicy{MaxAttempts: 1})
	s, ts := testServer(t, eng, Config{BreakerThreshold: 3, BreakerCooldown: time.Hour})

	// Fault-free reference answer first.
	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	if status != http.StatusOK {
		t.Fatalf("reference execute: %d %s", status, raw)
	}
	ref := decode[chaosWire](t, raw)
	if ref.Degraded || ref.Fallback {
		t.Fatalf("reference run flagged degraded=%v fallback=%v", ref.Degraded, ref.Fallback)
	}

	eng.SetFaults(seekKiller())
	defer eng.SetFaults(nil)

	// Three fallback executions trip the customers circuit.
	for i := 0; i < 3; i++ {
		status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
		if status != http.StatusOK {
			t.Fatalf("execute %d under faults: %d %s", i, status, raw)
		}
		res := decode[chaosWire](t, raw)
		if !res.Fallback {
			t.Fatalf("execute %d: expected engine fallback under a dead index path (access=%s)", i, res.AccessPath)
		}
		if res.Degraded {
			t.Fatalf("execute %d: degraded before the breaker could have tripped", i)
		}
		if string(res.Rows) != string(ref.Rows) {
			t.Fatalf("execute %d: fallback rows differ from reference", i)
		}
	}
	if got := s.breaker.StateOf("customers"); got != "open" {
		t.Fatalf("breaker state after %d fallbacks = %q, want open", 3, got)
	}

	// While open, queries are shed to the degraded plan: same rows, no
	// index seeks, so the armed seek fault cannot even fire.
	for i := 0; i < 2; i++ {
		status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
		if status != http.StatusOK {
			t.Fatalf("degraded execute: %d %s", status, raw)
		}
		res := decode[chaosWire](t, raw)
		if !res.Degraded {
			t.Fatalf("open breaker did not shed execute %d (access=%s)", i, res.AccessPath)
		}
		if res.Fallback {
			t.Fatal("degraded plan should never need the fallback path")
		}
		if string(res.Rows) != string(ref.Rows) {
			t.Fatal("degraded rows differ from reference")
		}
	}

	st := s.breakerStatus()
	if st.Trips < 1 || st.Degraded < 2 || st.OpenTables != 1 {
		t.Fatalf("breaker stats = %+v, want >=1 trip, >=2 degraded, 1 open table", st)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	eng := testEngine(t, 6000)
	eng.SetRetryPolicy(minequery.RetryPolicy{MaxAttempts: 1})
	s, ts := testServer(t, eng, Config{BreakerThreshold: 2, BreakerCooldown: time.Minute})

	eng.SetFaults(seekKiller())
	for i := 0; i < 2; i++ {
		if status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery}); status != http.StatusOK {
			t.Fatalf("tripping execute: %d %s", status, raw)
		}
	}
	if got := s.breaker.StateOf("customers"); got != "open" {
		t.Fatalf("breaker = %q, want open", got)
	}

	// Heal the fault and jump past the cooldown: the next query becomes
	// the half-open probe, succeeds on the optimized plan, and closes
	// the circuit.
	eng.SetFaults(nil)
	s.breaker.SetNow(func() time.Time { return time.Now().Add(2 * time.Minute) })

	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	if status != http.StatusOK {
		t.Fatalf("probe execute: %d %s", status, raw)
	}
	probe := decode[chaosWire](t, raw)
	if probe.Degraded || probe.Fallback {
		t.Fatalf("probe ran degraded=%v fallback=%v, want the optimized plan", probe.Degraded, probe.Fallback)
	}
	if got := s.breaker.StateOf("customers"); got != "closed" {
		t.Fatalf("breaker after successful probe = %q, want closed", got)
	}
	res := decode[chaosWire](t, raw)
	if res.RowCount == 0 {
		t.Fatal("probe returned no rows")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	eng := testEngine(t, 6000)
	eng.SetRetryPolicy(minequery.RetryPolicy{MaxAttempts: 1})
	s, ts := testServer(t, eng, Config{BreakerThreshold: 2, BreakerCooldown: time.Minute})

	eng.SetFaults(seekKiller())
	defer eng.SetFaults(nil)
	for i := 0; i < 2; i++ {
		call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	}
	trips := s.breakerStatus().Trips

	// Past cooldown with the fault still armed: the probe fails and the
	// circuit re-opens, counting another trip.
	s.breaker.SetNow(func() time.Time { return time.Now().Add(2 * time.Minute) })
	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	if status != http.StatusOK {
		t.Fatalf("probe execute: %d %s", status, raw)
	}
	if got := s.breaker.StateOf("customers"); got != "open" {
		t.Fatalf("breaker after failed probe = %q, want open", got)
	}
	if got := s.breakerStatus().Trips; got != trips+1 {
		t.Fatalf("trips after failed probe = %d, want %d", got, trips+1)
	}
}

func TestAdmissionFaultInjection(t *testing.T) {
	eng := testEngine(t, 8000)
	in := minequery.NewFaultInjector(1,
		minequery.FaultRule{Site: minequery.FaultSiteAdmission, OnHit: 1, Err: minequery.ErrInjected, Limit: 1})
	_, ts := testServer(t, eng, Config{Faults: in})

	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("injected admission fault: status %d %s, want 503", status, raw)
	}
	if code := errCode(t, raw); code != wire.CodeTransient {
		t.Fatalf("error code = %q, want %q", code, wire.CodeTransient)
	}

	// The rule's Limit is spent; the server recovers on the next query.
	status, raw = call(t, http.MethodPost, ts.URL+"/v1/execute", map[string]any{"sql": vipQuery})
	if status != http.StatusOK {
		t.Fatalf("post-fault execute: %d %s", status, raw)
	}
	if res := decode[chaosWire](t, raw); res.RowCount == 0 {
		t.Fatal("post-fault execute returned no rows")
	}
}

func TestSlowLogWraparound(t *testing.T) {
	l := newSlowLog(4)
	for i := 0; i < 11; i++ {
		l.record(slowLogEntry{SQL: fmt.Sprintf("q%d", i)})
	}
	if got := l.size(); got != 4 {
		t.Fatalf("size = %d, want 4 after wraparound", got)
	}
	if got := l.total.Load(); got != 11 {
		t.Fatalf("total = %d, want 11", got)
	}
	got := l.entries()
	want := []string{"q10", "q9", "q8", "q7"} // newest first
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.SQL != want[i] {
			t.Fatalf("entries[%d].SQL = %q, want %q (newest-first window)", i, e.SQL, want[i])
		}
	}
}

func TestSlowLogConcurrentRecordAndScrape(t *testing.T) {
	l := newSlowLog(8)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				l.record(slowLogEntry{SQL: fmt.Sprintf("w%d-%d", w, i), Rows: i})
			}
		}(w)
	}
	// Scrape continuously while writers wrap the ring; the race detector
	// owns the locking assertions, we just check structural sanity.
	for i := 0; i < 200; i++ {
		ents := l.entries()
		if len(ents) > 8 {
			t.Errorf("scrape %d: %d entries from a ring of 8", i, len(ents))
		}
		_ = l.size()
	}
	cancel()
	wg.Wait()
	if l.total.Load() < int64(l.size()) {
		t.Fatal("total fell below held entries")
	}
}

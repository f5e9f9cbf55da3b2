package cluster_test

// Cluster chaos layer: shards die mid-query (their TCP connections are
// severed after the request is accepted) and the tests assert the
// coordinator's contract — a typed ErrShardUnavailable in strict mode,
// an explicitly flagged degraded subset in AllowPartial mode, and in
// neither case silently missing rows. The per-remote circuit breaker's
// trip/shed/probe/recover cycle is driven against a real dying node.

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"minequery/internal/cluster"
	"minequery/internal/fault"
)

const spanAllQuery = "SELECT * FROM customers WHERE visits >= 0"

// fastRetry keeps chaos iterations quick: three attempts, microsecond
// backoff.
var fastRetry = fault.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Jitter: 0}

func TestShardKillMidQueryStrict(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1500, cluster.Config{Retry: fastRetry})
	ctx := context.Background()

	tc.gates[1].mode.Store(gateKillExec)
	_, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery})
	if err == nil {
		t.Fatal("query spanning a dead shard returned no error in strict mode")
	}
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("error is not ErrShardUnavailable: %v", err)
	}
	var se *cluster.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("error does not name the dead shard: %v", err)
	}

	// A query whose range pruning never touches the dead shard keeps
	// working: the failure domain is the shard, not the cluster.
	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: "SELECT * FROM customers WHERE income < 3"})
	if err != nil {
		t.Fatalf("pruned-past-dead-shard query failed: %v", err)
	}
	if res.ShardStats.Queried != 1 || res.ShardStats.Pruned != 2 {
		t.Fatalf("unexpected fan-out: %+v", res.ShardStats)
	}

	// Healed shard serves again.
	tc.gates[1].mode.Store(gateHealthy)
	if _, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery}); err != nil {
		t.Fatalf("healed shard still failing: %v", err)
	}
}

func TestShardKillHTTPStatus(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 800, cluster.Config{Retry: fastRetry})
	ch := bootCoordHTTP(t, tc)
	tc.gates[2].mode.Store(gateKillAll)
	st, raw := postJSON(t, ch.URL, "/v1/execute", map[string]any{"sql": spanAllQuery})
	if st != http.StatusBadGateway {
		t.Fatalf("dead shard surfaced as HTTP %d (want 502): %s", st, raw)
	}
	p := decodePayload(t, raw)
	if p.Error == nil || p.Error.Code != "shard_unavailable" {
		t.Fatalf("error envelope: %s", raw)
	}
}

func TestShardKillPartialResult(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1500,
		cluster.Config{Retry: fastRetry, AllowPartial: true})
	ctx := context.Background()
	tc.gates[1].mode.Store(gateKillExec)

	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery})
	if err != nil {
		t.Fatalf("AllowPartial still errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("partial result not flagged degraded")
	}
	if len(res.MissingShards) != 1 || res.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", res.MissingShards)
	}
	if len(res.Notes) == 0 {
		t.Fatal("degraded result carries no explanatory note")
	}
	// The surviving rows must be exactly shards 0 and 2 — a sound
	// subset, not a silently wrong one.
	var want [][]string
	for _, i := range []int{0, 2} {
		r, qerr := tc.engines[i].Query(ctx, spanAllQuery)
		if qerr != nil {
			t.Fatal(qerr)
		}
		want = append(want, rowStrings(r.Rows)...)
	}
	assertSameRows(t, coordStrings(t, res.Rows), want, "degraded partial result")

	// When every contacted shard is dead, "partial" would mean zero
	// sound rows — that must fail instead of succeeding emptily.
	tc.gates[0].mode.Store(gateKillExec)
	tc.gates[2].mode.Store(gateKillExec)
	if _, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery}); err == nil {
		t.Fatal("all-shards-dead AllowPartial query succeeded with no rows")
	}
}

func TestBreakerTripShedAndRecover(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 800, cluster.Config{
		Retry:            fastRetry,
		BreakerThreshold: 2,
		BreakerCooldown:  80 * time.Millisecond,
	})
	ctx := context.Background()
	tc.gates[0].mode.Store(gateKillExec)

	// Two availability failures trip shard 0's circuit.
	for i := 0; i < 2; i++ {
		if _, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery}); err == nil {
			t.Fatal("query against dead shard succeeded")
		}
	}
	if tc.coord.BreakerTrips() == 0 || tc.coord.BreakerOpen() != 1 {
		t.Fatalf("breaker did not trip: trips=%d open=%d", tc.coord.BreakerTrips(), tc.coord.BreakerOpen())
	}
	found := false
	for _, st := range tc.coord.ShardStatuses() {
		if st.ID == 0 && st.Breaker == "open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("shard 0 breaker state not reported open: %+v", tc.coord.ShardStatuses())
	}

	// While open, the shard is shed without a network attempt: the
	// error is immediate and typed.
	errsBefore := tc.coord.Counters().Errors
	_, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery})
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("open-circuit error: %v", err)
	}
	if tc.coord.Counters().Errors == errsBefore {
		t.Fatal("shed query not counted as a shard error")
	}

	// Heal, wait out the cooldown: the half-open probe closes the
	// circuit and the fleet answers byte-equal to the union again.
	tc.gates[0].mode.Store(gateHealthy)
	time.Sleep(120 * time.Millisecond)
	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery})
	if err != nil {
		t.Fatalf("post-cooldown probe query failed: %v", err)
	}
	if tc.coord.BreakerOpen() != 0 {
		t.Fatalf("breaker still open after successful probe")
	}
	want := rowStrings(tc.unionRows(spanAllQuery, 0).Rows)
	assertSameRows(t, coordStrings(t, res.Rows), want, "post-recovery full scan")
}

func TestChaosFlappingShardNeverWrongRows(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1200,
		cluster.Config{Retry: fastRetry, AllowPartial: true})
	ctx := context.Background()
	want := rowStrings(tc.unionRows(spanAllQuery, 0).Rows)
	var shard1 [][]string
	{
		r, err := tc.engines[1].Query(ctx, spanAllQuery)
		if err != nil {
			t.Fatal(err)
		}
		shard1 = rowStrings(r.Rows)
	}
	wantWithout1 := make([][]string, 0, len(want)-len(shard1))
	for _, i := range []int{0, 2} {
		r, err := tc.engines[i].Query(ctx, spanAllQuery)
		if err != nil {
			t.Fatal(err)
		}
		wantWithout1 = append(wantWithout1, rowStrings(r.Rows)...)
	}

	// Shard 1 flaps across 40 iterations. Every answer must be either
	// the full fleet (not degraded) or the explicit two-shard subset
	// (degraded + missing [1]) — nothing in between, ever.
	for i := 0; i < 40; i++ {
		if i%3 == 0 {
			tc.gates[1].mode.Store(gateKillExec)
		} else {
			tc.gates[1].mode.Store(gateHealthy)
		}
		res, err := tc.coord.Execute(ctx, cluster.Request{SQL: spanAllQuery})
		if err != nil {
			t.Fatalf("iter %d: AllowPartial errored: %v", i, err)
		}
		got := coordStrings(t, res.Rows)
		if res.Degraded {
			if len(res.MissingShards) != 1 || res.MissingShards[0] != 1 {
				t.Fatalf("iter %d: degraded with missing=%v", i, res.MissingShards)
			}
			assertSameRows(t, got, wantWithout1, "flapping degraded answer")
		} else {
			assertSameRows(t, got, want, "flapping healthy answer")
		}
	}
}

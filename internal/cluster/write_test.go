package cluster_test

// Fleet write-path tests: the coordinator's Exec must keep the
// placement invariant (every row on the shard its key maps to) and keep
// the fleet equivalent to the single union node that ran the same
// statements.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/qerr"
	"minequery/internal/server"
	"minequery/internal/wire"
)

func TestClusterInsertRoutesByShardKey(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{Retry: fastRetry})
	ctx := context.Background()

	// income values 1, 4, 7 land on shards 0, 1, 2 respectively.
	sql := `INSERT INTO customers (id, age, income, visits, segment) VALUES
		(900001, 2, 1, 5, 'budget'),
		(900002, 3, 4, 6, 'regular'),
		(900003, 1, 7, 7, 'vip'),
		(900004, 4, 4, 8, 'regular')`
	res, err := tc.coord.Exec(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 4 || res.ShardsWritten != 3 {
		t.Fatalf("insert result: %+v", res)
	}
	// Mirror on the union oracle.
	if _, err := tc.union.Exec(ctx, sql); err != nil {
		t.Fatal(err)
	}

	// Placement: each inserted row is on exactly the shard owning its
	// income value, and nowhere else.
	wantShard := map[int64]int{900001: 0, 900002: 1, 900003: 2, 900004: 1}
	for id, want := range wantShard {
		for s, eng := range tc.engines {
			r, err := eng.Query(ctx, "SELECT id FROM customers WHERE id = "+strconv.FormatInt(id, 10))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(r.Rows); (got == 1) != (s == want) {
				t.Fatalf("row %d: shard %d has %d copies (want on shard %d only)", id, s, got, want)
			}
		}
	}

	// The coordinator's read of the new rows matches the union node.
	cres, err := tc.coord.Execute(ctx, cluster.Request{SQL: "SELECT id, income FROM customers WHERE id >= 900001"})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Rows.N != 4 {
		t.Fatalf("coordinator sees %d new rows, want 4", cres.Rows.N)
	}
}

func TestClusterUpdateDeleteBroadcast(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{Retry: fastRetry})
	ctx := context.Background()

	// The predicate crosses shard ranges; the broadcast must hit every
	// matching row fleet-wide, and the union oracle gives the expected
	// count.
	upd := "UPDATE customers SET visits = 0 WHERE age >= 8"
	ures, err := tc.coord.Exec(ctx, upd)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := tc.union.Exec(ctx, upd)
	if err != nil {
		t.Fatal(err)
	}
	if ures.RowsAffected != ores.RowsAffected || ures.RowsAffected == 0 {
		t.Fatalf("update: cluster affected %d, union %d", ures.RowsAffected, ores.RowsAffected)
	}
	if ures.ShardsWritten != 3 {
		t.Fatalf("update broadcast wrote %d shards, want 3", ures.ShardsWritten)
	}

	del := "DELETE FROM customers WHERE visits = 0 AND age >= 8"
	dres, err := tc.coord.Exec(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	odres, err := tc.union.Exec(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	if dres.RowsAffected != odres.RowsAffected || dres.RowsAffected != ures.RowsAffected {
		t.Fatalf("delete: cluster affected %d, union %d, updated %d",
			dres.RowsAffected, odres.RowsAffected, ures.RowsAffected)
	}

	// Fleet row count equals the union node's after both statements.
	crows, err := tc.coord.Execute(ctx, cluster.Request{SQL: "SELECT COUNT(*) FROM customers"})
	if err != nil {
		t.Fatal(err)
	}
	urows := tc.unionRows("SELECT COUNT(*) FROM customers", 0)
	if crows.Rows.N != 1 || len(urows.Rows) != 1 {
		t.Fatalf("count shapes: cluster %d rows, union %d rows", crows.Rows.N, len(urows.Rows))
	}
	cc, uc := fmt.Sprint(cells(t, crows.Rows)[0][0]), fmt.Sprint(urows.Rows[0][0].AsInt())
	if cc != uc {
		t.Fatalf("fleet count %s != union count %s", cc, uc)
	}
}

func TestClusterUpdateShardKeyRejected(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1000, cluster.Config{Retry: fastRetry})
	ctx := context.Background()

	// Assigning the shard key would move rows off the shard their key
	// maps to without relocating them, so later key-pruned reads would
	// skip the shard actually holding them. The coordinator must reject
	// the statement before any shard sees it.
	_, err := tc.coord.Exec(ctx, "UPDATE customers SET income = 4 WHERE age >= 0")
	if !errors.Is(err, qerr.ErrUnsupportedQuery) {
		t.Fatalf("shard-key UPDATE: want ErrUnsupportedQuery, got %v", err)
	}
	// No shard applied anything: the fleet still answers a key-pruned
	// read consistently with the union oracle.
	crows, err := tc.coord.Execute(ctx, cluster.Request{SQL: "SELECT COUNT(*) FROM customers WHERE income = 4"})
	if err != nil {
		t.Fatal(err)
	}
	urows := tc.unionRows("SELECT COUNT(*) FROM customers WHERE income = 4", 0)
	if cc := cells(t, crows.Rows)[0][0]; fmt.Sprint(cc) != fmt.Sprint(urows.Rows[0][0].AsInt()) {
		t.Fatalf("fleet count %v != union count %v after rejected update",
			cc, urows.Rows[0][0].AsInt())
	}

	// A non-key UPDATE on the same table still broadcasts fine.
	if _, err := tc.coord.Exec(ctx, "UPDATE customers SET visits = 9 WHERE age >= 0"); err != nil {
		t.Fatalf("non-key UPDATE should pass: %v", err)
	}
}

func TestClusterCreateModelBroadcast(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{Retry: fastRetry})
	ctx := context.Background()

	res, err := tc.coord.Exec(ctx,
		"CREATE MODEL local_seg ON customers PREDICT segment USING dtree AS SELECT age, income, segment FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if res.Statement != "create model" || res.ShardsWritten != 3 {
		t.Fatalf("create model result: %+v", res)
	}
	// Each shard reports the model it trained over its own rows; the
	// coordinator lists them per shard rather than pretending to one.
	if len(res.Models) != 3 {
		t.Fatalf("create model reported %d shard models, want 3: %+v", len(res.Models), res)
	}
	for s, m := range res.Models {
		if m.Shard != s || m.Name != "local_seg" || m.Classes == 0 || m.Version == 0 {
			t.Fatalf("shard %d model body: %+v", s, m)
		}
	}
	// Every shard can serve a PREDICTION JOIN on its local model.
	for s, eng := range tc.engines {
		r, err := eng.Query(ctx, `SELECT id FROM customers
			PREDICTION JOIN local_seg AS m ON m.age = customers.age AND m.income = customers.income
			WHERE m.segment = 'regular' LIMIT 3`)
		if err != nil {
			t.Fatalf("shard %d predict query: %v", s, err)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("shard %d: model trained but predicts nothing", s)
		}
	}
}

func TestClusterWriteFailurePolicy(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 1000, cluster.Config{Retry: fastRetry})
	ctx := context.Background()

	// Kill shard 2 entirely: a broadcast must fail and name the shards
	// that did apply.
	tc.gates[2].mode.Store(gateKillAll)
	_, err := tc.coord.Exec(ctx, "UPDATE customers SET visits = 1 WHERE age = 0")
	if err == nil {
		t.Fatal("broadcast with a dead shard should fail")
	}
	if !strings.Contains(err.Error(), "applied on shards") {
		t.Fatalf("error should name partially applied shards: %v", err)
	}

	// An insert routed only to live shards still succeeds.
	tc.gates[2].mode.Store(gateHealthy)
	res, err := tc.coord.Exec(ctx,
		"INSERT INTO customers (id, age, income, visits, segment) VALUES (910000, 1, 0, 2, 'budget')")
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsWritten != 1 || res.RowsAffected != 1 {
		t.Fatalf("routed insert: %+v", res)
	}

	// SELECT through the write path is a typed rejection.
	if _, err := tc.coord.Exec(ctx, "SELECT id FROM customers"); err == nil {
		t.Fatal("SELECT through Exec should be rejected")
	}
}

// TestClusterWriteSurfacesShardRetrainFailure pins the partial-success
// contract through the coordinator: when a broadcast write commits on
// every shard but the retrain it triggers on one of them fails, the
// fleet write still succeeds — rows_affected authoritative, HTTP 200,
// nothing that invites a re-issue — and the result names the shard
// whose model is now stale. Shard 0 alone gets a model whose training
// view the statement empties (the deterministic trick of the engine's
// retrain_failure_test.go).
func TestClusterWriteSurfacesShardRetrainFailure(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{Retry: fastRetry})
	ctx := context.Background()
	if _, err := tc.engines[0].Exec(ctx,
		"CREATE MODEL vm ON customers PREDICT segment USING dtree AS SELECT age, segment FROM customers WHERE income = 0"); err != nil {
		t.Fatal(err)
	}
	tc.engines[0].SetRetrainPolicy(minequery.RetrainPolicy{WriteThreshold: 1})
	want, err := tc.union.Exec(ctx, "DELETE FROM customers WHERE income = 0")
	if err != nil || want.RowsAffected == 0 {
		t.Fatalf("union delete: %+v, %v", want, err)
	}

	hs := httptest.NewServer(server.NewCoord(tc.coord, 0).Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/exec", "application/json",
		strings.NewReader(`{"sql": "DELETE FROM customers WHERE income = 0"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: a committed write must never look re-issuable", resp.StatusCode)
	}
	var res wire.StatementResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != want.RowsAffected || res.ShardsWritten != 3 {
		t.Fatalf("write result %+v, want %d rows on 3 shards", res, want.RowsAffected)
	}
	if len(res.RetrainErrors) != 1 || res.RetrainErrors[0].Shard != 0 ||
		!strings.Contains(res.RetrainErrors[0].Error, "retrain") {
		t.Fatalf("retrain_errors = %+v, want shard 0's failed retrain", res.RetrainErrors)
	}
	// The delete really committed fleet-wide.
	cres, err := tc.coord.Execute(ctx, cluster.Request{SQL: "SELECT id FROM customers WHERE income = 0"})
	if err != nil || cres.Rows.N != 0 {
		t.Fatalf("rows survived the delete: %d, %v", cres.Rows.N, err)
	}
}

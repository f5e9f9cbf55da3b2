package server

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"

	"minequery"
	"minequery/internal/wire"
)

func serverStats(t testing.TB, ts string) statsResponse {
	t.Helper()
	st, raw := call(t, "GET", ts+"/v1/stats", nil)
	if st != http.StatusOK {
		t.Fatalf("stats: %d %s", st, raw)
	}
	return decode[statsResponse](t, raw)
}

func retrain(t testing.TB, eng *minequery.Engine) {
	t.Helper()
	if _, err := eng.TrainNaiveBayes("segmodel", "segment", "customers",
		[]string{"age", "income"}, "segment", minequery.BayesOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidationReprepares pins the invalidation contract end to end:
// every catalog mutation bumps the epoch, the next execute of a cached
// statement transparently re-prepares exactly once, and the re-prepared
// plan's results match a fresh unprepared query against the new catalog
// state.
func TestInvalidationReprepares(t *testing.T) {
	eng := testEngine(t, 4000)
	_, ts := testServer(t, eng, Config{})

	st, raw := call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: vipQuery})
	if st != http.StatusOK {
		t.Fatalf("prepare: %d %s", st, raw)
	}
	stmt := decode[wire.PrepareResponse](t, raw)
	if st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{StatementID: stmt.StatementID}); st != http.StatusOK {
		t.Fatalf("warm execute: %d %s", st, raw)
	}

	mutations := []struct {
		name   string
		mutate func(t testing.TB)
	}{
		{"model-retrain", func(t testing.TB) { retrain(t, eng) }},
		{"index-drop", func(t testing.TB) {
			if err := eng.DropIndexes("customers"); err != nil {
				t.Fatal(err)
			}
		}},
		{"index-create", func(t testing.TB) {
			if err := eng.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
				t.Fatal(err)
			}
		}},
		{"stats-refresh", func(t testing.TB) {
			if err := eng.Analyze("customers"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			before := serverStats(t, ts.URL)
			m.mutate(t)
			mid := serverStats(t, ts.URL)
			if mid.InvalidationEvents <= before.InvalidationEvents {
				t.Fatalf("invalidation_events %d -> %d: mutation not observed",
					before.InvalidationEvents, mid.InvalidationEvents)
			}
			if mid.CatalogEpoch <= before.CatalogEpoch {
				t.Fatalf("catalog_epoch %d -> %d: epoch did not advance",
					before.CatalogEpoch, mid.CatalogEpoch)
			}

			want, err := eng.Query(context.Background(), vipQuery)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, err := wire.EncodeRows(want.Rows)
			if err != nil {
				t.Fatal(err)
			}

			st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{StatementID: stmt.StatementID})
			if st != http.StatusOK {
				t.Fatalf("execute after %s: %d %s", m.name, st, raw)
			}
			got := decode[executeWire](t, raw)
			if got.StatementCacheHit {
				t.Fatalf("execute after %s reported a statement cache hit; want re-prepare", m.name)
			}
			if !bytes.Equal(bytes.TrimSpace(got.Rows), wantRows.Encoded) {
				t.Fatalf("rows after %s diverge from fresh query:\n got %s\nwant %s",
					m.name, got.Rows, wantRows.Encoded)
			}

			after := serverStats(t, ts.URL)
			if after.Prepared.Reprepares != mid.Prepared.Reprepares+1 {
				t.Fatalf("reprepares %d -> %d after %s; want exactly one",
					mid.Prepared.Reprepares, after.Prepared.Reprepares, m.name)
			}

			// Steady state again: the re-prepared plan is a cache hit.
			if st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{StatementID: stmt.StatementID}); st != http.StatusOK {
				t.Fatalf("re-execute: %d %s", st, raw)
			} else if !decode[executeWire](t, raw).StatementCacheHit {
				t.Fatal("second execute after re-prepare missed the statement cache")
			}
		})
	}
}

// TestModelEventPurgesEnvelopeCache: model-affecting invalidations purge
// the envelope cache (a space reclaim — fingerprint keys already make
// stale hits impossible), while pure stats refreshes leave it alone.
func TestModelEventPurgesEnvelopeCache(t *testing.T) {
	eng := testEngine(t, 2000)
	_, ts := testServer(t, eng, Config{})
	if st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery}); st != http.StatusOK {
		t.Fatalf("execute: %d %s", st, raw)
	}
	before := serverStats(t, ts.URL)
	if before.EnvelopeCache.Size == 0 {
		t.Fatal("envelope cache empty after a mining query")
	}
	if err := eng.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	mid := serverStats(t, ts.URL)
	if mid.EnvelopeCache.Purges != before.EnvelopeCache.Purges {
		t.Fatalf("stats refresh purged the envelope cache (purges %d -> %d)",
			before.EnvelopeCache.Purges, mid.EnvelopeCache.Purges)
	}
	retrain(t, eng)
	after := serverStats(t, ts.URL)
	if after.EnvelopeCache.Purges != mid.EnvelopeCache.Purges+1 {
		t.Fatalf("retrain purges %d -> %d; want exactly one purge",
			mid.EnvelopeCache.Purges, after.EnvelopeCache.Purges)
	}
	if after.EnvelopeCache.Size != 0 {
		t.Fatalf("envelope cache size %d after purge; want 0", after.EnvelopeCache.Size)
	}
}

// TestConcurrentPrepareExecuteInvalidate hammers prepare/execute while
// the model is retrained in a loop. Run under -race this pins the
// locking discipline; the behavioral assertions are deliberately loose —
// every response must be a well-typed success, timeout, or stale-plan
// conflict, and the server must be fully consistent afterwards.
func TestConcurrentPrepareExecuteInvalidate(t *testing.T) {
	eng := testEngine(t, 1500)
	_, ts := testServer(t, eng, Config{})

	const iters = 40
	var wg sync.WaitGroup
	fail := make(chan string, 256)

	// Catalog mutator: single writer, as the engine requires.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := eng.TrainNaiveBayes("segmodel", "segment", "customers",
				[]string{"age", "income"}, "segment", minequery.BayesOptions{}); err != nil {
				fail <- "retrain: " + err.Error()
				return
			}
			if i%8 == 3 {
				if err := eng.Analyze("customers"); err != nil {
					fail <- "analyze: " + err.Error()
					return
				}
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
				switch st {
				case http.StatusOK, http.StatusConflict:
				default:
					fail <- string(raw)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if st, raw := call(t, "POST", ts.URL+"/v1/prepare", wire.PrepareRequest{SQL: vipQuery}); st != http.StatusOK {
				fail <- string(raw)
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Errorf("concurrent request failed: %s", msg)
	}

	// Quiesced: one more execute must match a fresh query exactly.
	want, err := eng.Query(context.Background(), vipQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := wire.EncodeRows(want.Rows)
	if err != nil {
		t.Fatal(err)
	}
	st, raw := call(t, "POST", ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: vipQuery})
	if st != http.StatusOK {
		t.Fatalf("final execute: %d %s", st, raw)
	}
	if got := decode[executeWire](t, raw); !bytes.Equal(bytes.TrimSpace(got.Rows), wantRows.Encoded) {
		t.Fatalf("post-churn rows diverge:\n got %s\nwant %s", got.Rows, wantRows.Encoded)
	}
	stats := serverStats(t, ts.URL)
	if stats.Queries == 0 || stats.Prepared.Misses == 0 {
		t.Fatalf("implausible post-churn stats: %+v", stats)
	}
}

package minequery

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// rowsEqual demands positional equality: prepared execution must be
// byte-identical to the one-shot path, not merely the same multiset.
func rowsEqual(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestPreparedMatchesQueryAtAnyDOP(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(context.Background(), nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("test needs a non-empty result")
	}
	p, err := e.Prepare(nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid() {
		t.Fatal("freshly prepared statement must be valid")
	}
	for _, dop := range []int{1, 4} {
		got, err := p.Execute(context.Background(), WithDOP(dop))
		if err != nil {
			t.Fatalf("DOP %d: %v", dop, err)
		}
		if !rowsEqual(got.Rows, want.Rows) {
			t.Fatalf("DOP %d: prepared rows differ from Query rows", dop)
		}
		if got.Plan != want.Plan || got.AccessPath != want.AccessPath {
			t.Fatalf("DOP %d: prepared plan diverged:\n%s\nwant:\n%s", dop, got.Plan, want.Plan)
		}
	}
	// Repeat executions reuse the same plan object: no re-optimization.
	first := p.Plan()
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Plan() != first {
		t.Fatal("plan changed across executions")
	}
}

func TestPreparedGoesStale(t *testing.T) {
	stale := func(t *testing.T, mutate func(e *Engine)) {
		t.Helper()
		e := seedEngine(t, 4000)
		trainNB(t, e)
		p, err := e.Prepare(nbQuery)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		mutate(e)
		if p.Valid() {
			t.Fatal("statement still valid after catalog change")
		}
		if _, err := p.Execute(context.Background()); !errors.Is(err, ErrStalePlan) {
			t.Fatalf("err = %v, want ErrStalePlan", err)
		}
		// Re-preparing yields a working statement again.
		p2, err := e.Prepare(nbQuery)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.Query(context.Background(), nbQuery)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p2.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(got.Rows, fresh.Rows) {
			t.Fatal("re-prepared rows differ from fresh Query")
		}
	}
	t.Run("retrain", func(t *testing.T) {
		stale(t, func(e *Engine) { trainNB(t, e) })
	})
	t.Run("index-create", func(t *testing.T) {
		stale(t, func(e *Engine) {
			if err := e.CreateIndex("ix_late", "customers", "age", "income"); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("index-drop", func(t *testing.T) {
		stale(t, func(e *Engine) {
			if err := e.CreateIndex("ix_tmp", "customers", "income"); err != nil {
				t.Fatal(err)
			}
			// The create already staled the statement; the drop must too
			// (epoch strictly increases, never reverts).
			if err := e.DropIndexes("customers"); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("analyze", func(t *testing.T) {
		stale(t, func(e *Engine) {
			if err := e.Analyze("customers"); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("model-drop", func(t *testing.T) {
		stale(t, func(e *Engine) {
			if err := e.DropModel("segmodel"); err != nil {
				t.Fatal(err)
			}
			// Retrain so the helper's re-prepare has a model to bind; the
			// drop alone already bumped the epoch.
			trainNB(t, e)
		})
	})
}

func TestPreparedForceSeqScan(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	free, err := e.Prepare(nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	if free.AccessPath() == "seqscan" {
		t.Fatal("fixture must favor an index path for the hint to matter")
	}
	pinned, err := e.Prepare(nbQuery, WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.AccessPath() != "seqscan" {
		t.Fatalf("forced path = %q, want seqscan", pinned.AccessPath())
	}
	a, err := free.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := pinned.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(a.Rows, b.Rows) {
		t.Fatal("forced seqscan changed the result")
	}
}

// TestPrepareHonoursBaseline: baseline is a plan-shaping option, so a
// statement prepared with it must cache the black-box plan Query builds
// under the same option, not an envelope plan.
func TestPrepareHonoursBaseline(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(context.Background(), nbQuery, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := e.Prepare(nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.Plan() == want.Plan {
		t.Fatal("fixture must give the envelope rewrite a different plan for the option to matter")
	}
	p, err := e.Prepare(nbQuery, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.RewriteNotes) != 0 {
		t.Fatalf("baseline statement carries rewrite notes: %v", got.RewriteNotes)
	}
	if got.Plan != want.Plan || p.Plan() != want.Plan {
		t.Fatalf("prepared baseline plan:\n%s\nwant Query(WithBaseline()) plan:\n%s", got.Plan, want.Plan)
	}
	if !rowsEqual(got.Rows, want.Rows) {
		t.Fatal("prepared baseline rows differ from Query(WithBaseline())")
	}
}

// TestPartialAggsNeedAggregate: Query and Prepared.Execute share one
// run, so the option fails identically on a non-aggregate statement.
func TestPartialAggsNeedAggregate(t *testing.T) {
	e := seedEngine(t, 2000)
	trainNB(t, e)
	_, queryErr := e.Query(context.Background(), nbQuery, WithPartialAggs())
	p, err := e.Prepare(nbQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, execErr := p.Execute(context.Background(), WithPartialAggs())
	for name, err := range map[string]error{"Query": queryErr, "Execute": execErr} {
		if !errors.Is(err, ErrUnsupportedQuery) {
			t.Errorf("%s: err = %v, want ErrUnsupportedQuery", name, err)
		}
	}
	if queryErr != nil && execErr != nil && queryErr.Error() != execErr.Error() {
		t.Errorf("Query said %q, Execute said %q", queryErr, execErr)
	}
}

// TestStaleModelVersionIsStalePlan runs a compiled plan whose pinned
// model version is behind the catalog without the epoch check in front —
// what an ad-hoc Query sees when a retrain lands between its compile
// and its run. The Predict operator's guard must surface as ErrStalePlan,
// on its own and under an aggregate, whose workers build the same
// operator.
func TestStaleModelVersionIsStalePlan(t *testing.T) {
	e := seedEngine(t, 2000)
	trainNB(t, e)
	for _, sql := range []string{
		nbQuery,
		`SELECT m.segment, count(*) FROM customers
			PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
			GROUP BY m.segment`,
	} {
		p, err := e.compile(sql, queryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.collect(context.Background(), queryConfig{}); err != nil {
			t.Fatalf("current-version plan: %v", err)
		}
		trainNB(t, e)
		if _, err := p.collect(context.Background(), queryConfig{}); !errors.Is(err, ErrStalePlan) {
			t.Errorf("%s\nerr = %v, want ErrStalePlan", sql, err)
		}
	}
}

func TestQueryContextCancel(t *testing.T) {
	e := seedEngine(t, 20000)
	trainNB(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, nbQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.Query(ctx, nbQuery, WithBaseline()); !errors.Is(err, context.Canceled) {
		t.Fatalf("baseline err = %v, want context.Canceled", err)
	}
}

func TestEngineEnvelopeCacheSharedAcrossStatements(t *testing.T) {
	e := seedEngine(t, 4000)
	trainNB(t, e)
	cache := &countingCache{m: map[string]CachedEnvelope{}}
	e.SetEnvelopeCache(cache)
	if _, err := e.Query(context.Background(), nbQuery); err != nil {
		t.Fatal(err)
	}
	misses := cache.misses
	if misses == 0 {
		t.Fatal("first query should populate the cache")
	}
	// A different statement with the same mining predicate reuses the
	// derived envelope.
	other := `SELECT id FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'vip' LIMIT 5`
	if _, err := e.Query(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if cache.hits == 0 {
		t.Fatal("second statement with the same class set missed the cache")
	}
	if cache.misses != misses {
		t.Fatalf("second statement re-derived envelopes (%d new misses)", cache.misses-misses)
	}
	// A cache entry is shared across spellings of the prediction column,
	// so the notes a hit reports must name this statement's column, not
	// the column of whichever statement filled the entry.
	aliased := `SELECT id FROM customers
		PREDICTION JOIN segmodel AS zz ON zz.age = customers.age AND zz.income = customers.income
		WHERE zz.segment = 'vip'`
	cached, err := e.Query(context.Background(), aliased)
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != misses {
		t.Fatalf("aliased statement re-derived envelopes (%d new misses)", cache.misses-misses)
	}
	e.SetEnvelopeCache(nil)
	uncached, err := e.Query(context.Background(), aliased)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(cached.RewriteNotes, "\n"), strings.Join(uncached.RewriteNotes, "\n"); got != want {
		t.Fatalf("notes through the cache:\n%s\nwithout it:\n%s", got, want)
	}
}

type countingCache struct {
	m            map[string]CachedEnvelope
	hits, misses int
}

func (c *countingCache) Get(key string) (CachedEnvelope, bool) {
	ce, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ce, ok
}

func (c *countingCache) Put(key string, ce CachedEnvelope) { c.m[key] = ce }

// tapeSink is a RowSink that records what it is told: every Begin, and
// the rows (copied, as the contract demands of a sink that keeps them)
// delivered since the last one. Each Batch takes stall.
type tapeSink struct {
	begins int
	rows   []Tuple
	stall  time.Duration
}

func (s *tapeSink) Begin() { s.begins++; s.rows = nil }

func (s *tapeSink) Batch(b []Tuple) error {
	for _, row := range b {
		s.rows = append(s.rows, row.Clone())
		for i := range row {
			row[i] = Str("scribbled") // the batch is the sink's until it returns
		}
	}
	time.Sleep(s.stall)
	return nil
}

// TestExecuteIntoSink: ExecuteInto hands the sink exactly the rows
// Execute returns and keeps none itself; an index path that fails after
// its first batch starts the sink over, so the fallback's rows arrive
// once; a sink's own time is not the plan's.
func TestExecuteIntoSink(t *testing.T) {
	e := seedEngine(t, 40000)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	e.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	p, err := e.Prepare(`SELECT id, segment FROM customers WHERE age = 3 AND income >= 2 AND income <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(want.AccessPath, "index") || len(want.Rows) < 600 || want.RowCount != len(want.Rows) {
		t.Fatalf("fixture: access %q, %d rows (RowCount %d), want an index path over several batches",
			want.AccessPath, len(want.Rows), want.RowCount)
	}
	check := func(what string, res *Result, sink *tapeSink, begins int) {
		t.Helper()
		if res.Rows != nil || res.RowCount != len(want.Rows) {
			t.Fatalf("%s: Result.Rows has %d rows, RowCount %d; want nil and %d", what, len(res.Rows), res.RowCount, len(want.Rows))
		}
		if sink.begins != begins || len(sink.rows) != len(want.Rows) {
			t.Fatalf("%s: %d attempts, %d rows since the last began; want %d and %d", what, sink.begins, len(sink.rows), begins, len(want.Rows))
		}
		for i, row := range sink.rows {
			if !row.Equal(want.Rows[i]) {
				t.Fatalf("%s: row %d = %v, Execute returned %v", what, i, row, want.Rows[i])
			}
		}
	}

	clean := &tapeSink{}
	res, err := p.ExecuteInto(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	check("clean run", res, clean, 1)

	// The 300th fetch fails, after a first batch of 256 went to the sink.
	faults := NewFaultInjector(1, FaultRule{Site: FaultSitePageReadRand, OnHit: 300, Err: ErrInjected})
	e.SetFaults(faults)
	restarted := &tapeSink{}
	res, err = p.ExecuteInto(context.Background(), restarted)
	e.SetFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback || faults.Fired(FaultSitePageReadRand) != 1 {
		t.Fatalf("fallback=%v after %d injected failures: the test is vacuous", res.Fallback, faults.Fired(FaultSitePageReadRand))
	}
	check("restarted run", res, restarted, 2)

	// Three batches or more, 30ms each in the sink: none of it is the plan's.
	slow := &tapeSink{stall: 30 * time.Millisecond}
	start := time.Now()
	res, err = p.ExecuteInto(context.Background(), slow)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if wall < 90*time.Millisecond || res.Stats.Duration > wall-80*time.Millisecond {
		t.Fatalf("Stats.Duration = %v of a %v call that spent at least 90ms in its sink", res.Stats.Duration, wall)
	}
}

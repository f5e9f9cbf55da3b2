package fault_test

// Seeded chaos suite: named failure scenarios injected through the
// public API at every layer the injector reaches — storage page reads,
// index seeks, morsel claims, batch boundaries — asserting the stack's
// one invariant under faults: a query returns either the correct rows
// or a typed error (transient / context), NEVER a wrong answer. Every
// scenario is a pure function of its seed, so a failure replays exactly
// (including under -race, which CI runs this suite with).
//
// This file lives in package fault_test so it can drive the whole
// engine; the unit tests for the injector and retry mechanics are in
// fault_test.go and retry_test.go alongside the implementation.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"minequery"
	"minequery/internal/exec"
)

// chaosEngine builds a deterministic fixture: table t(id, cat, num)
// with indexes on cat and num, plus a decision tree whose "hot" class
// envelope (num >= ~95) is index-friendly.
func chaosEngine(t testing.TB, rows int) *minequery.Engine {
	t.Helper()
	// Two-page morsels keep parallel scans claiming several morsels even
	// on a test-sized heap, so the morsel-claim site fires more than once.
	eng := minequery.NewWithConfig(minequery.Config{Exec: exec.Options{MorselPages: 2}})
	if err := eng.CreateTable("t", minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "cat", Kind: minequery.KindString},
		minequery.Column{Name: "num", Kind: minequery.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateTable("t_lbl", minequery.MustSchema(
		minequery.Column{Name: "num", Kind: minequery.KindInt},
		minequery.Column{Name: "cls", Kind: minequery.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	batch := make([]minequery.Tuple, 0, rows)
	lbl := make([]minequery.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		num := int64(r.Intn(100))
		batch = append(batch, minequery.Tuple{
			minequery.Int(int64(i)),
			minequery.Str(fmt.Sprintf("c%d", r.Intn(8))),
			minequery.Int(num),
		})
		cls := "cold"
		if num >= 95 {
			cls = "hot"
		}
		lbl = append(lbl, minequery.Tuple{minequery.Int(num), minequery.Str(cls)})
	}
	if err := eng.InsertBatch("t", batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch("t_lbl", lbl); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("ix_cat", "t", "cat"); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("ix_num", "t", "num"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainDecisionTree("dt", "cls", "t_lbl", []string{"num"}, "cls", minequery.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// chaosQueries are the executions each scenario replays: a full scan, a
// selective index range, an OR that can choose an index union, and a
// mining predicate whose envelope is index-friendly.
var chaosQueries = []string{
	"SELECT * FROM t WHERE num >= 0",
	"SELECT * FROM t WHERE num >= 97",
	"SELECT * FROM t WHERE num <= 1 OR num >= 98",
	"SELECT * FROM t PREDICTION JOIN dt AS m ON m.num = t.num WHERE m.cls = 'hot'",
}

func rowSet(res *minequery.Result) []string {
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

// oracle computes the fault-free answers once per engine.
func oracle(t *testing.T, eng *minequery.Engine) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, q := range chaosQueries {
		res, err := eng.Query(context.Background(), q, minequery.WithForcedPath("seqscan"))
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("oracle %q matched no rows; fixture is degenerate", q)
		}
		out[q] = rowSet(res)
	}
	return out
}

// TestChaosScenarios replays the named failure scenarios. Each asserts
// the exact contract for its fault: absorbed (correct rows, retries
// counted), degraded (correct rows, fallback recorded), or surfaced
// (typed transient error) — and in every case, zero wrong answers.
func TestChaosScenarios(t *testing.T) {
	eng := chaosEngine(t, 3000)
	want := oracle(t, eng)
	ctx := context.Background()
	noRetry := minequery.RetryPolicy{MaxAttempts: 1}

	type outcome int
	const (
		absorbed outcome = iota // rows correct, retries > 0
		degraded                // rows correct, Fallback set (on index paths)
		surfaced                // typed transient error
		clean                   // rows correct, no side signal asserted
	)
	scenarios := []struct {
		name    string
		rules   []minequery.FaultRule
		noRetry bool
		queries []string
		dop     int
		want    outcome
	}{
		{
			name:    "page_read_error_on_nth_seq_read",
			rules:   []minequery.FaultRule{{Site: minequery.FaultSitePageReadSeq, OnHit: 3, Err: minequery.ErrInjected}},
			queries: chaosQueries[:1],
			dop:     1,
			want:    absorbed,
		},
		{
			name:    "page_read_error_every_page_no_retry",
			rules:   []minequery.FaultRule{{Site: minequery.FaultSitePageReadSeq, EveryN: 1, Err: minequery.ErrInjected}},
			noRetry: true,
			queries: chaosQueries[:1],
			dop:     1,
			want:    surfaced,
		},
		{
			name: "worker_stall_at_morsel_claim",
			rules: []minequery.FaultRule{{
				Site: minequery.FaultSiteMorselClaim, OnHit: 1, Delay: 3 * time.Millisecond,
			}},
			queries: chaosQueries[:1],
			dop:     4,
			want:    clean,
		},
		{
			name:    "morsel_claim_error_under_parallel_scan",
			rules:   []minequery.FaultRule{{Site: minequery.FaultSiteMorselClaim, OnHit: 2, Err: minequery.ErrInjected, Limit: 1}},
			noRetry: true,
			queries: chaosQueries[:1],
			dop:     4,
			want:    surfaced,
		},
		{
			name:    "index_seek_error_falls_back_mid_query",
			rules:   []minequery.FaultRule{{Site: minequery.FaultSiteIndexSeek, EveryN: 1, Err: minequery.ErrInjected}},
			noRetry: true,
			queries: chaosQueries[1:],
			dop:     1,
			want:    degraded,
		},
		{
			name:    "rand_page_read_error_during_rid_fetch",
			rules:   []minequery.FaultRule{{Site: minequery.FaultSitePageReadRand, OnHit: 1, Err: minequery.ErrInjected}},
			queries: chaosQueries[1:2],
			dop:     1,
			want:    absorbed,
		},
		{
			name:    "retry_budget_absorbs_repeated_seek_failures",
			rules:   []minequery.FaultRule{{Site: minequery.FaultSiteIndexSeek, OnHit: 1, Err: minequery.ErrInjected, Limit: 1}},
			queries: chaosQueries[1:2],
			dop:     1,
			want:    absorbed,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			eng.SetFaults(minequery.NewFaultInjector(1, sc.rules...))
			if sc.noRetry {
				eng.SetRetryPolicy(noRetry)
			} else {
				eng.SetRetryPolicy(minequery.DefaultRetryPolicy())
			}
			defer func() {
				eng.SetFaults(nil)
				eng.SetRetryPolicy(minequery.DefaultRetryPolicy())
			}()
			for _, q := range sc.queries {
				opts := []minequery.QueryOption{minequery.WithDOP(sc.dop)}
				if sc.want == surfaced {
					opts = append(opts, minequery.WithNoFallback())
				}
				res, err := eng.Query(ctx, q, opts...)
				switch sc.want {
				case surfaced:
					if err == nil {
						t.Fatalf("%q: expected a surfaced transient error, got %d rows", q, len(res.Rows))
					}
					if !errors.Is(err, minequery.ErrTransient) {
						t.Fatalf("%q: error is not typed transient: %v", q, err)
					}
					continue
				default:
					if err != nil {
						t.Fatalf("%q: %v", q, err)
					}
				}
				if got := rowSet(res); !equalStrings(got, want[q]) {
					t.Fatalf("WRONG ANSWER under faults: %q returned %d rows, oracle %d (path=%s fallback=%v)",
						q, len(res.Rows), len(want[q]), res.AccessPath, res.Fallback)
				}
				switch sc.want {
				case absorbed:
					if res.Retries == 0 {
						t.Errorf("%q: expected retries to be counted (path=%s)", q, res.AccessPath)
					}
					if res.Fallback {
						t.Errorf("%q: retry should have absorbed the fault without fallback", q)
					}
				case degraded:
					if strings.HasPrefix(res.AccessPath, "index") {
						t.Errorf("%q: still on index path %s under a persistent seek fault", q, res.AccessPath)
					}
					if !res.Fallback && res.PlanChanged {
						t.Errorf("%q: changed plan did not record fallback (path=%s)", q, res.AccessPath)
					}
				}
			}
		})
	}
}

// TestChaosPrunedPartitionScan injects faults into a partition-pruned
// sequential scan: a range-partitioned table with no indexes forces the
// optimizer onto the pruned scan path, and page-read / morsel-claim
// faults land inside the surviving partitions' page ranges. The
// invariant is unchanged — absorbed faults yield the exact oracle rows
// (with pruning still in effect), surfaced faults carry a typed
// transient error — at DOP 1 and 4.
func TestChaosPrunedPartitionScan(t *testing.T) {
	eng := minequery.NewWithConfig(minequery.Config{Exec: exec.Options{MorselPages: 2}})
	bounds := make([]minequery.Value, 0, 7)
	for b := int64(20); b <= 140; b += 20 {
		bounds = append(bounds, minequery.Int(b)) // 8 partitions; [140,∞) empty
	}
	if err := eng.CreatePartitionedTable("t", minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "num", Kind: minequery.KindInt},
	), "num", bounds); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT * FROM t WHERE num >= 100 AND num <= 119"
	ctx := context.Background()
	// Fill until the surviving partition spans 3 pages, however wide a
	// stored row is: the absorbed page fault is the scan's second page
	// read, and must land inside the pruned scan.
	r := rand.New(rand.NewSource(7))
	for n, pages := int64(0), int64(0); pages < 3; {
		batch := make([]minequery.Tuple, 0, 1000)
		for ; len(batch) < cap(batch); n++ {
			batch = append(batch, minequery.Tuple{
				minequery.Int(n), minequery.Int(int64(r.Intn(140))),
			})
		}
		if err := eng.InsertBatch("t", batch); err != nil {
			t.Fatal(err)
		}
		if err := eng.Analyze("t"); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		pages = res.Stats.SeqPageReads
	}
	base, err := eng.Query(ctx, sql, minequery.WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	want := rowSet(base)
	if len(want) == 0 {
		t.Fatal("oracle matched no rows; fixture is degenerate")
	}

	scenarios := []struct {
		name    string
		rule    minequery.FaultRule
		noRetry bool
		dop     int
		surface bool
	}{
		{"page_read_absorbed_serial",
			minequery.FaultRule{Site: minequery.FaultSitePageReadSeq, OnHit: 2, Err: minequery.ErrInjected}, false, 1, false},
		{"page_read_absorbed_parallel",
			minequery.FaultRule{Site: minequery.FaultSitePageReadSeq, OnHit: 2, Err: minequery.ErrInjected}, false, 4, false},
		{"page_read_surfaced_no_retry",
			minequery.FaultRule{Site: minequery.FaultSitePageReadSeq, EveryN: 1, Err: minequery.ErrInjected}, true, 1, true},
		{"morsel_claim_surfaced_parallel",
			minequery.FaultRule{Site: minequery.FaultSiteMorselClaim, OnHit: 1, Err: minequery.ErrInjected, Limit: 1}, true, 4, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			eng.SetFaults(minequery.NewFaultInjector(1, sc.rule))
			if sc.noRetry {
				eng.SetRetryPolicy(minequery.RetryPolicy{MaxAttempts: 1})
			}
			defer func() {
				eng.SetFaults(nil)
				eng.SetRetryPolicy(minequery.DefaultRetryPolicy())
			}()
			res, err := eng.Query(ctx, sql, minequery.WithDOP(sc.dop), minequery.WithNoFallback())
			if sc.surface {
				if err == nil {
					t.Fatalf("expected a surfaced transient error, got %d rows", len(res.Rows))
				}
				if !errors.Is(err, minequery.ErrTransient) {
					t.Fatalf("error is not typed transient: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.PartitionsPruned == 0 || res.PartitionsTotal != 8 {
				t.Fatalf("faulted query lost pruning: %d/%d", res.PartitionsPruned, res.PartitionsTotal)
			}
			if got := rowSet(res); !equalStrings(got, want) {
				t.Fatalf("WRONG ANSWER under faults on pruned scan: %d rows, oracle %d", len(res.Rows), len(want))
			}
			if res.Retries == 0 {
				t.Error("expected the absorbed fault to be counted in Retries")
			}
		})
	}
}

// TestChaosDeadlineDuringInjectedStall pins deadline enforcement: an
// injected stall longer than the query deadline must surface
// context.DeadlineExceeded (typed), not hang and not return rows.
func TestChaosDeadlineDuringInjectedStall(t *testing.T) {
	eng := chaosEngine(t, 3000)
	cases := []struct {
		name string
		rule minequery.FaultRule
		sql  string
		dop  int
	}{
		{
			name: "stall_at_batch_boundary",
			rule: minequery.FaultRule{Site: minequery.FaultSiteBatch, EveryN: 1, Delay: 30 * time.Millisecond},
			sql:  chaosQueries[0],
			dop:  1,
		},
		{
			name: "stall_mid_union_seek",
			rule: minequery.FaultRule{Site: minequery.FaultSiteIndexSeek, EveryN: 1, Delay: 30 * time.Millisecond},
			sql:  chaosQueries[2],
			dop:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng.SetFaults(minequery.NewFaultInjector(1, tc.rule))
			defer eng.SetFaults(nil)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			_, err := eng.Query(ctx, tc.sql, minequery.WithDOP(tc.dop))
			if err == nil {
				t.Fatal("query completed despite an injected stall past its deadline")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// TestChaosSeededSweep is the randomized layer: across many seeds,
// probabilistic fault rules are armed on every site at once and the
// full query set replayed. Whatever the outcome mix, a completed query
// must match the oracle and a failed one must carry a typed error.
func TestChaosSeededSweep(t *testing.T) {
	eng := chaosEngine(t, 2000)
	want := oracle(t, eng)
	ctx := context.Background()
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	completed, failed := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		in := minequery.NewFaultInjector(seed,
			minequery.FaultRule{Site: minequery.FaultSitePageReadSeq, Prob: 0.02, Err: minequery.ErrInjected},
			minequery.FaultRule{Site: minequery.FaultSitePageReadRand, Prob: 0.02, Err: minequery.ErrInjected},
			minequery.FaultRule{Site: minequery.FaultSiteIndexSeek, Prob: 0.2, Err: minequery.ErrInjected},
			minequery.FaultRule{Site: minequery.FaultSiteMorselClaim, Prob: 0.05, Err: minequery.ErrInjected},
			minequery.FaultRule{Site: minequery.FaultSiteBatch, Prob: 0.01, Err: minequery.ErrInjected},
		)
		eng.SetFaults(in)
		for _, q := range chaosQueries {
			for _, dop := range []int{1, 4} {
				res, err := eng.Query(ctx, q, minequery.WithDOP(dop))
				if err != nil {
					failed++
					if !errors.Is(err, minequery.ErrTransient) {
						t.Fatalf("seed %d %q dop=%d: untyped error: %v", seed, q, dop, err)
					}
					continue
				}
				completed++
				if got := rowSet(res); !equalStrings(got, want[q]) {
					t.Fatalf("WRONG ANSWER: seed %d %q dop=%d returned %d rows, oracle %d (path=%s fallback=%v)",
						seed, q, dop, len(res.Rows), len(want[q]), res.AccessPath, res.Fallback)
				}
			}
		}
		eng.SetFaults(nil)
	}
	if completed == 0 {
		t.Fatal("no query completed across the sweep; fault rates are too hot to be meaningful")
	}
	t.Logf("sweep: %d completed (all correct), %d failed (all typed)", completed, failed)
}

// TestChaosBackoffScheduleFakeClock asserts the engine's retry backoff
// schedule exactly, with no real sleeping: a fake clock records each
// backoff and the test drives it forward.
func TestChaosBackoffScheduleFakeClock(t *testing.T) {
	eng := chaosEngine(t, 1500)
	want := oracle(t, eng)
	fc := minequery.NewFakeClock()
	eng.SetRetryClock(fc)
	eng.SetRetryPolicy(minequery.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Jitter: 0})
	// Two consecutive failures of one page read: the retry layer should
	// sleep 10ms then 20ms and succeed on the third try.
	eng.SetFaults(minequery.NewFaultInjector(1,
		minequery.FaultRule{Site: minequery.FaultSitePageReadSeq, OnHit: 2, Err: minequery.ErrInjected},
		minequery.FaultRule{Site: minequery.FaultSitePageReadSeq, OnHit: 3, Err: minequery.ErrInjected},
	))
	defer func() {
		eng.SetFaults(nil)
		eng.SetRetryClock(nil)
		eng.SetRetryPolicy(minequery.DefaultRetryPolicy())
	}()

	type qr struct {
		res *minequery.Result
		err error
	}
	done := make(chan qr, 1)
	go func() {
		res, err := eng.Query(context.Background(), chaosQueries[0], minequery.WithDOP(1))
		done <- qr{res, err}
	}()
	// Drive the clock: each parked sleeper is a backoff in progress.
	deadline := time.Now().Add(5 * time.Second)
	for woken := 0; woken < 2; {
		select {
		case r := <-done:
			t.Fatalf("query finished before the backoff schedule completed: err=%v", r.err)
		default:
		}
		if fc.Sleepers() > 0 {
			fc.Advance(20 * time.Millisecond)
			woken++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sleeper parked; slept so far: %v", fc.Slept())
		}
		time.Sleep(100 * time.Microsecond)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("query failed despite retry budget: %v", r.err)
	}
	if got := rowSet(r.res); !equalStrings(got, want[chaosQueries[0]]) {
		t.Fatal("retried query returned wrong rows")
	}
	slept := fc.Slept()
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule = %v, want [10ms 20ms]", slept)
	}
	if r.res.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", r.res.Retries)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package minequery

// What an execution renders: the report is built from the collector on
// its first read, with everything the Result records, and a prepared
// tree's Explain text is kept from its second request on.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"minequery/internal/plan"
)

// TestAnalyzeReportCarriesFallback: the fields executePlan and
// runPlanOnce record on a Result — fallback, its reason, retries,
// partitions — reach a report built after the execution returned, and
// a fallback execution's Plan is the fallback tree's text even once the
// root tree's text is kept.
func TestAnalyzeReportCarriesFallback(t *testing.T) {
	e := seedEngine(t, 40000)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	e.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
	p, err := e.Prepare(`SELECT id, segment FROM customers WHERE age = 3 AND income >= 2 AND income <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two clean runs: the index tree's text is kept from now on.
	for i := 0; i < 2; i++ {
		res, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.AccessPath, "index") || !strings.Contains(res.Plan, "IndexSeek") {
			t.Fatalf("fixture: access %q, plan\n%s\nwant an index path", res.AccessPath, res.Plan)
		}
	}

	// Every random page read fails, past the retry: the index path gives
	// up and the fallback scan runs, and absorbs the one failure of its
	// first sequential page.
	for i := 0; i < 2; i++ {
		e.SetFaults(NewFaultInjector(1,
			FaultRule{Site: FaultSitePageReadRand, EveryN: 1, Err: ErrInjected},
			FaultRule{Site: FaultSitePageReadSeq, OnHit: 1, Err: ErrInjected}))
		res, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1))
		e.SetFaults(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fallback || res.Retries == 0 {
			t.Fatalf("fallback=%v retries=%d: the test is vacuous", res.Fallback, res.Retries)
		}
		if !strings.Contains(res.Plan, "SeqScan") || strings.Contains(res.Plan, "IndexSeek") {
			t.Fatalf("fallback execution %d reports the plan\n%s\nwant the fallback scan's", i, res.Plan)
		}
		rep := res.Report()
		if !rep.Fallback || rep.FallbackReason != res.FallbackReason || rep.Retries != res.Retries {
			t.Fatalf("report: fallback=%v reason %q retries %d; Result: reason %q retries %d",
				rep.Fallback, rep.FallbackReason, rep.Retries, res.FallbackReason, res.Retries)
		}
		text := rep.Render(true)
		for _, want := range []string{"\nfallback: index path failed transiently", fmt.Sprintf("\nretries: %d transient", res.Retries)} {
			if !strings.Contains(text, want) {
				t.Fatalf("rendered report lacks %q:\n%s", want, text)
			}
		}
		if res.Report() != rep {
			t.Fatal("a second Report call built a second report")
		}
	}
	res, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback || !strings.Contains(res.Plan, "IndexSeek") {
		t.Fatalf("clean run after the fallbacks: fallback=%v plan\n%s", res.Fallback, res.Plan)
	}

	t.Run("partitions", func(t *testing.T) {
		e := New()
		schema := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "num", Kind: KindInt})
		if err := e.CreatePartitionedTable("t", schema, "num", []Value{Int(10), Int(20), Int(30)}); err != nil {
			t.Fatal(err)
		}
		rows := make([]Tuple, 0, 400)
		for i := 0; i < 400; i++ {
			rows = append(rows, Tuple{Int(int64(i)), Int(int64(i % 40))})
		}
		if err := e.InsertBatch("t", rows); err != nil {
			t.Fatal(err)
		}
		p, err := e.Prepare(`SELECT id FROM t WHERE num >= 25`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ExecuteInto(context.Background(), DiscardRows)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report()
		if res.PartitionsPruned == 0 || rep.PartitionsPruned != res.PartitionsPruned || rep.PartitionsTotal != res.PartitionsTotal {
			t.Fatalf("Result prunes %d/%d, report %d/%d", res.PartitionsPruned, res.PartitionsTotal, rep.PartitionsPruned, rep.PartitionsTotal)
		}
	})
}

// TestAnalyzeReportOnEveryResult: Execute and Query return the report in
// Analyze, the one Report builds; ExecuteInto leaves Analyze nil and
// builds the same report when asked.
func TestAnalyzeReportOnEveryResult(t *testing.T) {
	e := analyzeFixture(t)
	ctx := context.Background()
	sql := strings.Replace(nbQuery, "'vip'", "'budget'", 1)
	q, err := e.Query(ctx, sql, WithAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.Execute(ctx, WithAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	into, err := p.ExecuteInto(ctx, DiscardRows, WithAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	for what, res := range map[string]*Result{"Query": q, "Execute": x} {
		if res.Analyze == nil || res.Analyze != res.Report() {
			t.Fatalf("%s: Analyze %p, Report() %p", what, res.Analyze, res.Report())
		}
	}
	if into.Analyze != nil {
		t.Fatal("ExecuteInto built the report before anyone asked")
	}
	if got, want := into.Report().Render(true), q.Report().Render(true); got != want {
		t.Fatalf("ExecuteInto's report:\n%s\nQuery's:\n%s", got, want)
	}
	if (&Result{}).Report() != nil {
		t.Fatal("a Result no execution made has a report")
	}
}

// renderFixture prepares a SeqScan → Predict → Filter → Project
// statement over a small table, where what an execution renders is a
// large share of what it allocates.
func renderFixture(t *testing.T) *Prepared {
	t.Helper()
	e := seedEngine(t, 2000)
	trainNB(t, e)
	p, err := e.Prepare(`SELECT id, m.segment FROM customers
		PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.segment = 'budget' OR m.segment = 'vip'`, WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllocExecuteRendersOnRead: a streamed execution renders no report
// and, once its statement has run twice, no plan text. The bound is
// what such an execution allocates (2,304 B, on one P with GC off, Go
// 1.24 on x86-64) with a little slack: 3,936 B before a prepared tree
// kept its exec.Bound (TestAllocPreparedBindsOnce); rendering the report
// and the plan text on every execution, as the engine once did, took
// 8,840 B.
func TestAllocExecuteRendersOnRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := renderFixture(t)
	ctx := context.Background()
	once, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.rootKept.text.v.Load() != nil {
		t.Fatal("a statement executed once kept its plan text")
	}
	var plans [2]string
	for i := range plans {
		res, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1))
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = res.Plan
	}
	if plans[0] != once.Plan || unsafe.StringData(plans[0]) != unsafe.StringData(plans[1]) {
		t.Fatal("the second and third executions rendered the plan text twice")
	}
	if !strings.Contains(once.Plan, "SeqScan") || !strings.Contains(once.Plan, "PredictionJoin") || !strings.Contains(once.Plan, "Project") {
		t.Fatalf("fixture plan:\n%s", once.Plan)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d B per execution", least)
	if least > 2768 {
		t.Fatalf("an execution allocates %d B, at most 2768: something renders text nobody read", least)
	}
}

// TestPreparedPlanTextConcurrent: executions of one statement on many
// goroutines, racing to keep its plan text, all report the same text.
func TestPreparedPlanTextConcurrent(t *testing.T) {
	p := renderFixture(t)
	want := p.Plan()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := p.Execute(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if res.Plan != want {
					errs <- fmt.Errorf("plan text\n%s\nwant\n%s", res.Plan, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if kept := p.rootKept.text.v.Load(); kept == nil || *kept != want {
		t.Fatal("25 requests and no plan text kept")
	}
}

// TestAllocNeedsPostFilterRendersNothing: deciding whether a plan needs
// the post-filter compares the full and data-only predicates by
// structure, rendering neither.
func TestAllocNeedsPostFilterRendersNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := seedEngine(t, 2000)
	trainNB(t, e)
	for sql, want := range map[string]bool{
		`SELECT id FROM customers PREDICTION JOIN segmodel AS m ON m.age = customers.age AND m.income = customers.income
			WHERE m.segment = 'budget' AND age >= 30`: true,
		`SELECT id FROM customers WHERE age >= 30 AND income < 50`: false,
	} {
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := needsPostFilter(p.rewrite); got != want {
			t.Fatalf("needsPostFilter = %v, want %v: full %s, data %s", got, want, p.rewrite.FullPred, p.rewrite.DataPred)
		}
		if n := testing.AllocsPerRun(100, func() { needsPostFilter(p.rewrite) }); n != 0 {
			t.Errorf("needsPostFilter on %s allocates %v times", p.rewrite.FullPred, n)
		}
	}
}

// TestDescribeCreateModelMatchesOracle: EXPLAIN CREATE MODEL's root
// renders as the fmt form it was first written in, whatever the names
// hold.
func TestDescribeCreateModelMatchesOracle(t *testing.T) {
	for _, d := range []modelDef{
		{name: "risk_tree", family: "dtree", predict: "segment", table: "customers"},
		{name: "", family: "", predict: "", table: ""},
		{name: `M "q"`, family: "nbayes", predict: "m.risk\n", table: "値 t"},
	} {
		n := createModelNode{d: &d, view: &plan.SeqScan{Table: d.table}}
		want := fmt.Sprintf("CreateModel(%s family=%s predict=%s over %s)", d.name, d.family, d.predict, d.table)
		if got := plan.Describe(n); got != want {
			t.Errorf("Describe = %q, oracle %q", got, want)
		}
		if got := plan.Explain(n); got != want+"\n  SeqScan("+d.table+")\n" {
			t.Errorf("Explain = %q", got)
		}
	}
}

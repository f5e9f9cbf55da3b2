package minequery

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// bindOnceFixture is analyzeFixture with a second model over the same
// inputs, so that a statement can carry two prediction joins.
func bindOnceFixture(t testing.TB) *Engine {
	t.Helper()
	e := analyzeFixture(t)
	if _, err := e.TrainDecisionTree("treemodel", "segment", "customers",
		[]string{"age", "income"}, "segment", TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	return e
}

const (
	joinSegTree = `
		PREDICTION JOIN segmodel AS s ON s.age = customers.age AND s.income = customers.income
		PREDICTION JOIN treemodel AS r ON r.age = customers.age AND r.income = customers.income`
	// twoModelsQuery and groupByPredictedQuery are shaped like the
	// scan_row benchmark's two_models and group_by_predicted statements.
	twoModelsQuery        = `SELECT id, age, visits FROM customers` + joinSegTree + ` WHERE s.segment = 'budget' AND r.segment = 'budget'`
	groupByPredictedQuery = `SELECT s.segment, count(*), sum(income) FROM customers
		PREDICTION JOIN segmodel AS s ON s.age = customers.age AND s.income = customers.income GROUP BY s.segment`
)

// bindOnceShape is one statement of the differential sweep: its SQL, the
// plan-shaping options it is prepared (and queried) with, and the access
// path it must plan as, which keeps the sweep covering every leaf kind.
type bindOnceShape struct {
	name, sql string
	plan      []QueryOption
	path      string
	partial   bool // also run in partial-aggregate mode
	// limited: a LIMIT stops the scan where it has enough rows, which at
	// DOP > 1 is wherever the workers' read-ahead was: only the rows
	// repeat there.
	limited bool
}

var bindOnceShapes = []bindOnceShape{
	{name: "seqscan", sql: `SELECT * FROM customers`, path: "seqscan"},
	{name: "filter", sql: `SELECT * FROM customers WHERE visits >= 40 OR age = 3`, path: "seqscan"},
	{name: "predict_project", sql: `SELECT id, s.segment FROM customers
		PREDICTION JOIN segmodel AS s ON s.age = customers.age AND s.income = customers.income
		WHERE s.segment = 'budget' OR s.segment = 'vip'`, path: "seqscan"},
	{name: "two_predicts_limit", sql: twoModelsQuery + ` LIMIT 300`, path: "seqscan", limited: true},
	{name: "two_models", sql: twoModelsQuery, path: "seqscan"},
	{name: "group_by_predicted", sql: groupByPredictedQuery, path: "seqscan", partial: true},
	{name: "group_by_filtered", sql: aggGroupQuery, path: "seqscan", partial: true},
	{name: "index_seek", sql: nbQuery, path: "index"},
	{name: "index_union", sql: `SELECT id, visits FROM customers WHERE (age = 0 AND income = 7) OR (age = 1 AND income = 6)`, path: "index-union"},
	{name: "const_scan", sql: strings.Replace(nbQuery, "'vip'", "'nope'", 1), path: "constant"},
	{name: "forced_seqscan", sql: nbQuery, plan: []QueryOption{WithForcedPath("seqscan")}, path: "seqscan"},
}

// execFingerprint is everything an execution must reproduce whatever was
// kept between runs: the rows (or the partial state), the storage format
// and, when counted, the page and tuple counts and the EXPLAIN ANALYZE
// text with timings masked.
func execFingerprint(res *Result, counted bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "path=%s format=%s rows=%d\n", res.AccessPath, res.StorageFormat, res.RowCount)
	if counted {
		fmt.Fprintf(&b, "seq=%d rand=%d tuples=%d\n", res.Stats.SeqPageReads, res.Stats.RandPageReads, res.Stats.TupleReads)
		b.WriteString(res.Report().Render(true))
	}
	if res.PartialAgg != nil {
		fmt.Fprintf(&b, "partial=%+v\n", *res.PartialAgg)
	}
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPreparedBindOnceMatchesFresh: a prepared statement keeps its
// tree's exec.Bound from the second run on, and runs 1–4 of it answer
// exactly what an ad-hoc Query of the same SQL — bound afresh — does:
// rows, page and tuple counts, and EXPLAIN ANALYZE text, on every leaf
// kind, row and columnar, at DOP 1 and 4, with and without envelope
// attribution, and in partial-aggregate mode.
func TestPreparedBindOnceMatchesFresh(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		e := bindOnceFixture(t)
		if columnar {
			if err := e.EnableColumnar("customers"); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		for _, sh := range bindOnceShapes {
			p, err := e.Prepare(sh.sql, sh.plan...)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			if got := p.AccessPath(); got != sh.path {
				t.Fatalf("%s planned as %s, want %s", sh.name, got, sh.path)
			}
			for _, dop := range []int{1, 4} {
				for _, analyze := range []bool{false, true} {
					for _, partial := range []bool{false, true} {
						if partial && !sh.partial {
							continue
						}
						opts := []QueryOption{WithDOP(dop)}
						if analyze {
							opts = append(opts, WithAnalyze())
						}
						if partial {
							opts = append(opts, WithPartialAggs())
						}
						name := fmt.Sprintf("%s columnar=%v dop=%d analyze=%v partial=%v", sh.name, columnar, dop, analyze, partial)
						fresh, err := e.Query(ctx, sh.sql, append(append([]QueryOption(nil), sh.plan...), opts...)...)
						if err != nil {
							t.Fatalf("%s: query: %v", name, err)
						}
						counted := dop == 1 || !sh.limited
						want := execFingerprint(fresh, counted)
						if columnar && sh.path == "seqscan" && sh.plan == nil && fresh.StorageFormat != "columnar" {
							t.Fatalf("%s: ran %s on a fresh sidecar", name, fresh.StorageFormat)
						}
						for run := 1; run <= 4; run++ {
							res, err := p.Execute(ctx, opts...)
							if err != nil {
								t.Fatalf("%s run %d: %v", name, run, err)
							}
							if got := execFingerprint(res, counted); got != want {
								t.Fatalf("%s run %d differs from a fresh query\n--- prepared ---\n%s--- fresh ---\n%s", name, run, got, want)
							}
						}
					}
				}
			}
			if p.rootKept.bound.v.Load() == nil {
				t.Fatalf("%s: a statement run %d times kept no Bound", sh.name, 4*4)
			}
		}
	}
}

// TestPreparedBindOnceStaleSidecar: a columnar statement whose Bound is
// kept runs on rows, through that Bound, once a write leaves the sidecar
// stale — and answers what the same plan bound afresh does: the first
// run of a twin prepared before the write. (A query planned after the
// write is no oracle: it plans the scan as a row scan.)
func TestPreparedBindOnceStaleSidecar(t *testing.T) {
	ctx := context.Background()
	for _, sh := range []bindOnceShape{bindOnceShapes[1], bindOnceShapes[5]} {
		e := bindOnceFixture(t)
		if err := e.EnableColumnar("customers"); err != nil {
			t.Fatal(err)
		}
		prepare := func() *Prepared {
			p, err := e.Prepare(sh.sql)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p := prepare()
		for run := 0; run < 2; run++ {
			res, err := p.Execute(ctx, WithAnalyze())
			if err != nil {
				t.Fatal(err)
			}
			if res.StorageFormat != "columnar" {
				t.Fatalf("%s: ran %s on a fresh sidecar", sh.name, res.StorageFormat)
			}
		}
		kept := p.rootKept.bound.v.Load()
		if kept == nil {
			t.Fatalf("%s: no Bound kept after two runs", sh.name)
		}
		var twins [4]*Prepared
		for i := range twins {
			twins[i] = prepare()
		}
		if err := e.Insert("customers", Tuple{Int(900000 + int64(len(sh.name))), Int(3), Int(1), Int(45), Str("budget")}); err != nil {
			t.Fatal(err)
		}
		for i, twin := range twins {
			dop, analyze := 1+3*(i%2), i >= 2
			opts := []QueryOption{WithDOP(dop)}
			if analyze {
				opts = append(opts, WithAnalyze())
			}
			fresh, err := twin.Execute(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Execute(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.StorageFormat != "row" {
				t.Fatalf("%s dop=%d: ran %s on a stale sidecar", sh.name, dop, res.StorageFormat)
			}
			if got, want := execFingerprint(res, true), execFingerprint(fresh, true); got != want {
				t.Fatalf("%s dop=%d analyze=%v: the kept Bound on a stale sidecar\n%s\nfresh:\n%s", sh.name, dop, analyze, got, want)
			}
		}
		if p.rootKept.bound.v.Load() != kept {
			t.Fatalf("%s: the write replaced the kept Bound", sh.name)
		}
	}
}

// TestPreparedBindOnceConcurrent: executions of one statement on eight
// goroutines, racing to keep its Bound, all answer alike, and one Bound
// is kept.
func TestPreparedBindOnceConcurrent(t *testing.T) {
	e := bindOnceFixture(t)
	if err := e.EnableColumnar("customers"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{twoModelsQuery, aggGroupQuery} {
		want, err := e.Query(context.Background(), sql, WithDOP(2))
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					res, err := p.Execute(context.Background(), WithDOP(2))
					if err != nil {
						errs <- err
						return
					}
					if got := execFingerprint(res, true); got != execFingerprint(want, true) {
						errs <- fmt.Errorf("a concurrent execution differs from a fresh query:\n%s", got)
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
		if p.rootKept.bound.v.Load() == nil {
			t.Fatal("24 executions and no Bound kept")
		}
	}
}

// TestPreparedRetrainAfterBindIsStale: a retrain between a statement's
// second and third runs — its Bound kept by then — makes the third run
// stale: through Execute, which checks the catalog epoch, and through the
// run itself, whose kept Bound looks the pinned model up again.
func TestPreparedRetrainAfterBindIsStale(t *testing.T) {
	e := bindOnceFixture(t)
	ctx := context.Background()
	for _, sql := range []string{twoModelsQuery, groupByPredictedQuery} {
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if p.rootKept.bound.v.Load() == nil {
			t.Fatal("no Bound kept after two runs")
		}
		trainNB(t, e)
		if _, err := p.Execute(ctx); !errors.Is(err, ErrStalePlan) {
			t.Errorf("Execute after a retrain: err = %v, want ErrStalePlan", err)
		}
		for _, qc := range []queryConfig{{}, {partialAggs: true}} {
			if qc.partialAggs && !p.query.Grouped() {
				continue
			}
			if _, err := p.collect(ctx, qc); !errors.Is(err, ErrStalePlan) {
				t.Errorf("a run of the kept Bound after a retrain (partial=%v): err = %v, want ErrStalePlan", qc.partialAggs, err)
			}
		}
	}
}

// scanRowLike prepares the two statements of the scan_row benchmark the
// allocation figures below are for.
func scanRowLike(t testing.TB) []*Prepared {
	e := bindOnceFixture(t)
	var ps []*Prepared
	for _, sql := range []string{twoModelsQuery, groupByPredictedQuery} {
		p, err := e.Prepare(sql, WithForcedPath("seqscan"))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestAllocPreparedBindsOnce: a statement executed once keeps no Bound,
// and from the third run on an execution re-derives nothing of its plan:
// no schema, decode mask, model binding, aggregate spec or collector map.
// The bound is what the two scan_row-shaped statements' third runs
// allocate together (6,800 B, on one P with GC off, Go 1.24 on x86-64)
// with a little slack; re-deriving all of it on every run, as the engine
// once did, took 11,320 B.
func TestAllocPreparedBindsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ps := scanRowLike(t)
	ctx := context.Background()
	for _, p := range ps {
		if _, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1)); err != nil {
			t.Fatal(err)
		}
		if p.rootKept.bound.v.Load() != nil {
			t.Fatal("a statement executed once kept its Bound")
		}
		if _, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1)); err != nil {
			t.Fatal(err)
		}
		if p.rootKept.bound.v.Load() == nil {
			t.Fatal("a statement executed twice kept no Bound")
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range ps {
			if _, err := p.ExecuteInto(ctx, DiscardRows, WithDOP(1)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d B per pair of executions", least)
	if least > 7400 {
		t.Fatalf("a pair of executions allocates %d B, at most 7400: something is bound again on every run", least)
	}
}

// BenchmarkPreparedExecute runs the scan_row-shaped statements at DOP 1,
// streamed into DiscardRows: B/op and allocs/op are the figures to
// watch, time only supporting evidence.
func BenchmarkPreparedExecute(b *testing.B) {
	ps := scanRowLike(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps[i%len(ps)].ExecuteInto(ctx, DiscardRows, WithDOP(1)); err != nil {
			b.Fatal(err)
		}
	}
}

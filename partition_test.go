package minequery

// Partitioned-table coverage at the public API: a differential sweep
// re-running the random query generator over range-partitioned tables
// with uniform, skewed, and empty partitions (pruned execution vs the
// forced unpruned scan oracle at DOP 1 and 4, with a chaos slice
// injecting page-read faults into the pruned scans), plus the
// 16-partition acceptance check — a selective mining predicate must
// prune at least half the partitions and cut sequential page reads
// against an identical unpartitioned table.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// buildPartDiffEngine mirrors buildDiffEngine over a range-partitioned
// table: "t" is partitioned on num by the given bounds, with the same
// indexes and three trained models (two on num — whose envelopes can
// drive pruning — one on cat).
func buildPartDiffEngine(t *testing.T, seed int64, rows int, bounds []Value) (*Engine, []diffModel) {
	t.Helper()
	eng := New()
	if err := eng.CreatePartitionedTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "cat", Kind: KindString},
		Column{Name: "num", Kind: KindInt},
	), "num", bounds); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	labelsCls := make([]string, rows)
	batch := make([]Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		cat := fmt.Sprintf("c%d", r.Intn(8))
		num := r.Intn(100)
		batch = append(batch, Tuple{Int(int64(i)), Str(cat), Int(int64(num))})
		if num >= 85 {
			labelsCls[i] = "high"
		} else {
			labelsCls[i] = "low"
		}
	}
	if err := eng.InsertBatch("t", batch); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][]string{{"cat"}, {"num"}} {
		if err := eng.CreateIndex("ix_"+strings.Join(ix, "_"), "t", ix...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Analyze("t"); err != nil {
		t.Fatal(err)
	}

	if err := eng.CreateTable("t_lbl", MustSchema(
		Column{Name: "cat", Kind: KindString},
		Column{Name: "num", Kind: KindInt},
		Column{Name: "cls", Kind: KindString},
		Column{Name: "grp", Kind: KindString},
	)); err != nil {
		t.Fatal(err)
	}
	lb := make([]Tuple, 0, rows)
	for i, row := range batch {
		grp := "a"
		if row[1].AsString() >= "c4" {
			grp = "b"
		}
		lb = append(lb, Tuple{row[1], row[2], Str(labelsCls[i]), Str(grp)})
	}
	if err := eng.InsertBatch("t_lbl", lb); err != nil {
		t.Fatal(err)
	}

	var models []diffModel
	add := func(mi *ModelInfo, err error, alias, predCol string, onCols ...string) {
		t.Helper()
		if err != nil {
			t.Fatalf("train %s: %v", alias, err)
		}
		models = append(models, diffModel{
			name: mi.Name, alias: alias, predCol: predCol, onCols: onCols, classes: mi.Classes,
		})
	}
	mi, err := eng.TrainDecisionTree("pdt", "cls", "t_lbl", []string{"num"}, "cls", TreeOptions{})
	add(mi, err, "m_dt", "cls", "num")
	mi, err = eng.TrainNaiveBayes("pnb", "grp", "t_lbl", []string{"cat"}, "grp", BayesOptions{})
	add(mi, err, "m_nb", "grp", "cat")
	mi, err = eng.TrainKMeans("pkm", "cluster", "t_lbl", []string{"num"}, ClusterOptions{K: 3, Seed: 7})
	add(mi, err, "m_km", "cluster", "num")
	return eng, models
}

// TestDifferentialPartitionedRandomQueries sweeps the random query
// generator over three partitioning shapes — uniform, skewed with
// tiny edge partitions, and 16 random boundaries (several partitions
// empty, one boundary past the data range) — checking pruned execution
// against the forced unpruned scan oracle at DOP 1 and 4. Every 6th
// iteration runs under a seeded page-read injector with retries on, so
// pruned partition scans absorb transient faults mid-sweep; the row
// sets must still match exactly.
func TestDifferentialPartitionedRandomQueries(t *testing.T) {
	const seed = 20260805
	perShape := 167 // 3 shapes ≈ 500 iterations
	if testing.Short() {
		perShape = 40
	}
	boundSets := [][]Value{
		{Int(25), Int(50), Int(75)},
		// Skewed: tiny partitions at both edges, two huge ones in the
		// middle, and [97,∞) nearly empty.
		{Int(2), Int(4), Int(50), Int(95), Int(97)},
		// 16 partitions from random boundaries; 120 and 140 lie past the
		// data range (num < 100), so the last partitions stay empty.
		randomBounds(seed, 13, 120),
	}
	ctx := context.Background()
	pruningSeen := 0
	for shape, bounds := range boundSets {
		eng, models := buildPartDiffEngine(t, seed+int64(shape), 900, bounds)
		pageFaults := NewFaultInjector(seed, FaultRule{Site: FaultSitePageReadSeq, EveryN: 7, Err: ErrInjected})
		r := rand.New(rand.NewSource(seed + int64(shape)))
		for i := 0; i < perShape; i++ {
			sql := genQuery(r, models)
			faulty := i%6 == 5

			base, err := eng.Query(ctx, sql, WithForcedPath("seqscan"), WithDOP(1))
			if err != nil {
				t.Fatalf("shape %d iter %d: oracle failed for %q: %v", shape, i, sql, err)
			}
			want := sortedKeys(base.Rows)

			if faulty {
				eng.SetFaults(pageFaults)
			}
			for _, dop := range []int{1, 4} {
				res, err := eng.Query(ctx, sql, WithDOP(dop))
				if err != nil {
					t.Fatalf("shape %d iter %d (faulty=%v, dop=%d): %q: %v", shape, i, faulty, dop, sql, err)
				}
				if got := sortedKeys(res.Rows); !sameRowSets(got, want) {
					t.Fatalf("shape %d iter %d (faulty=%v, dop=%d, path=%s, pruned=%d/%d): %q returned %d rows, oracle %d\nseed=%d",
						shape, i, faulty, dop, res.AccessPath, res.PartitionsPruned, res.PartitionsTotal,
						sql, len(res.Rows), len(base.Rows), seed)
				}
				if res.PartitionsTotal != len(bounds)+1 {
					t.Fatalf("shape %d iter %d: PartitionsTotal = %d, want %d",
						shape, i, res.PartitionsTotal, len(bounds)+1)
				}
				if res.PartitionsPruned > 0 {
					pruningSeen++
				}
			}
			if faulty {
				eng.SetFaults(nil)
			}
		}
	}
	if pruningSeen == 0 {
		t.Fatal("no iteration pruned a partition; generator or pruner drifted")
	}
	t.Logf("%d executions pruned at least one partition", pruningSeen)
}

// randomBounds returns n strictly increasing int bounds seeded off the
// run seed, with the last one forced past the data range so the final
// partitions are empty.
func randomBounds(seed int64, n int, beyond int64) []Value {
	r := rand.New(rand.NewSource(seed * 31))
	set := map[int64]bool{}
	for len(set) < n {
		set[int64(r.Intn(100))] = true
	}
	vals := make([]int64, 0, n+2)
	for v := range set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	vals = append(vals, beyond, beyond+20)
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = Int(v)
	}
	return out
}

// TestPartitionPruningAcceptance is the headline check: on a
// 16-partition table with no indexes, a selective mining predicate must
// prune at least half the partitions, EXPLAIN ANALYZE must say so, and
// sequential page reads must drop to a fraction of an identical
// unpartitioned table's scan.
func TestPartitionPruningAcceptance(t *testing.T) {
	const rows = 8000
	schema := func() *Schema {
		return MustSchema(
			Column{Name: "id", Kind: KindInt},
			Column{Name: "num", Kind: KindInt},
			Column{Name: "cls", Kind: KindString},
		)
	}
	bounds := make([]Value, 0, 15)
	for b := int64(6); b <= 90; b += 6 {
		bounds = append(bounds, Int(b)) // 15 bounds -> 16 partitions
	}
	part, plain := New(), New()
	if err := part.CreatePartitionedTable("t", schema(), "num", bounds); err != nil {
		t.Fatal(err)
	}
	if err := plain.CreateTable("t", schema()); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	batch := make([]Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		num := int64(r.Intn(100))
		cls := "low"
		if num >= 88 {
			cls = "high" // 12% of rows, confined to the top partitions
		}
		batch = append(batch, Tuple{Int(int64(i)), Int(num), Str(cls)})
	}
	for _, eng := range []*Engine{part, plain} {
		if err := eng.InsertBatch("t", batch); err != nil {
			t.Fatal(err)
		}
		if err := eng.Analyze("t"); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.TrainDecisionTree("dt", "cls", "t", []string{"num"}, "cls", TreeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewMetricsRegistry()
	part.RegisterMetrics(reg)

	const sql = `SELECT * FROM t PREDICTION JOIN dt AS m ON m.num = t.num WHERE m.cls = 'high'`
	ctx := context.Background()
	report, res, err := part.ExplainAnalyze(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsTotal != 16 {
		t.Fatalf("PartitionsTotal = %d, want 16", res.PartitionsTotal)
	}
	if res.PartitionsPruned < 8 {
		t.Fatalf("PartitionsPruned = %d, want >= 8 (report:\n%s)", res.PartitionsPruned, report)
	}
	wantLine := fmt.Sprintf("partitions: %d/16 pruned", res.PartitionsPruned)
	if !strings.Contains(report, wantLine) {
		t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", wantLine, report)
	}

	// The new counters moved and are exposed under their frozen names
	// (checked now, while exactly one query has run on this engine).
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	wantPruned := fmt.Sprintf("minequery_partitions_pruned_total %d", res.PartitionsPruned)
	wantScanned := fmt.Sprintf("minequery_partitions_scanned_total %d", 16-res.PartitionsPruned)
	if !strings.Contains(exp, wantPruned) || !strings.Contains(exp, wantScanned) {
		t.Fatalf("metrics exposition missing %q / %q:\n%s", wantPruned, wantScanned, exp)
	}

	// Same rows as the unpruned oracle and as the unpartitioned engine.
	oracle, err := part.Query(ctx, sql, WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := plain.Query(ctx, sql, WithForcedPath("seqscan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || !sameRowSets(sortedKeys(res.Rows), sortedKeys(oracle.Rows)) ||
		!sameRowSets(sortedKeys(res.Rows), sortedKeys(base.Rows)) {
		t.Fatalf("row sets diverge: pruned=%d oracle=%d unpartitioned=%d",
			len(res.Rows), len(oracle.Rows), len(base.Rows))
	}

	// The I/O win: the pruned scan must read at most half the pages the
	// unpartitioned full scan reads (it actually reads ~2/16 plus
	// partial-page slack).
	if res.Stats.SeqPageReads*2 > base.Stats.SeqPageReads {
		t.Fatalf("pruned scan read %d seq pages, unpartitioned full scan %d; want at most half",
			res.Stats.SeqPageReads, base.Stats.SeqPageReads)
	}

	// The forced oracle scanned everything and must not count as pruning.
	if oracle.PartitionsPruned != 0 {
		t.Fatalf("forced seqscan reports %d pruned partitions", oracle.PartitionsPruned)
	}
}

// TestPartitionNaNNeverPruned: value.Compare ties NaN with every number,
// so a comparison accepts a NaN row, while routing files it in one
// partition that pruning then skips. A partitioned table must answer
// like its unpartitioned twin over every row both accepted — which it
// does by refusing NaN in the partition column.
func TestPartitionNaNNeverPruned(t *testing.T) {
	eng := New()
	sch := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "x", Kind: KindFloat})
	if err := eng.CreatePartitionedTable("part", sch, "x", []Value{Int(10), Int(20)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateTable("twin", sch); err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{1, 15, 25, math.NaN()} {
		row := Tuple{Int(int64(i + 1)), Float(x)}
		if err := eng.Insert("part", row); err != nil {
			if !math.IsNaN(x) || !strings.Contains(err.Error(), "NaN") {
				t.Fatalf("insert x=%v: %v", x, err)
			}
			continue
		}
		if err := eng.Insert("twin", row); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(table, where string) string {
		res, err := eng.Query(context.Background(), "SELECT id FROM "+table+" WHERE "+where)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range res.Rows {
			out = append(out, r[0].String())
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	for _, where := range []string{"x <= 5", "x >= 5 AND x <= 12", "x = 3"} {
		if part, twin := ids("part", where), ids("twin", where); part != twin {
			t.Errorf("WHERE %s: partitioned ids {%s}, unpartitioned twin {%s}", where, part, twin)
		}
	}
}

// TestCreatePartitionedTableValidation pins the public-API error paths.
func TestCreatePartitionedTableValidation(t *testing.T) {
	eng := New()
	sch := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	cases := []struct {
		name    string
		col     string
		bounds  []Value
		wantErr bool
	}{
		{"ok", "a", []Value{Int(1), Int(2)}, false},
		{"no-such-column", "zzz", []Value{Int(1)}, true},
		{"no-bounds", "a", nil, true},
		{"descending", "a", []Value{Int(5), Int(3)}, true},
		{"duplicate", "a", []Value{Int(5), Int(5)}, true},
		{"null-bound", "a", []Value{Null()}, true},
		{"kind-mismatch", "a", []Value{Str("x")}, true},
		{"nan-bound", "a", []Value{Float(math.NaN())}, true},
	}
	for i, tc := range cases {
		err := eng.CreatePartitionedTable(fmt.Sprintf("t%d", i), sch, tc.col, tc.bounds)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
	// The surviving table routes inserts and reports its partition count
	// (2 bounds -> 3 partitions).
	if err := eng.Insert("t0", Tuple{Int(1), Str("x")}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), "SELECT * FROM t0 WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsTotal != 3 {
		t.Errorf("partitioned t0: PartitionsTotal = %d, want 3", res.PartitionsTotal)
	}
	// Unpartitioned tables report zero partition info.
	if err := eng.CreateTable("plain", sch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Insert("plain", Tuple{Int(1), Str("x")}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(context.Background(), "SELECT * FROM plain WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsTotal != 0 || res.PartitionsPruned != 0 {
		t.Errorf("plain table: partitions %d/%d, want 0/0", res.PartitionsPruned, res.PartitionsTotal)
	}
}

package minequery

// Partitioned tables and odd floats at the public API: the 16-partition
// acceptance check — a selective mining predicate must prune at least
// half the partitions and cut sequential page reads against an identical
// unpartitioned table — NaN routing, the error paths, and an index over
// −0.0 and NaN. Pruned and indexed execution against the reference, over
// random bounds and empty partitions, is TestModelCheck's.

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
	if len(res.Rows) == 0 || idsOf(res) != idsOf(oracle) || idsOf(res) != idsOf(base) {
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

// TestPartitionNaNNeverPruned: a NaN in the partition column is routed
// by the one order every comparison uses — below every number, into
// partition 0 — so pruning keeps every row a comparison accepts and the
// partitioned table answers like its unpartitioned twin.
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

// TestIndexSeekMatchesScanOverOddFloats: floats have one order, so an
// index on a FLOAT column answers exactly as the forced sequential scan
// does once it stores a −0.0 (0 to both), and again once it also stores
// a NaN (below every number, equal to none of them).
func TestIndexSeekMatchesScanOverOddFloats(t *testing.T) {
	eng := New()
	if err := eng.CreateTable("f", MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "x", Kind: KindFloat})); err != nil {
		t.Fatal(err)
	}
	rows := make([]Tuple, 20000)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Float(float64(i % 1000))}
	}
	rows[0][1] = Float(math.Copysign(0, -1))
	if err := eng.InsertBatch("f", rows); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("ix_x", "f", "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("f"); err != nil {
		t.Fatal(err)
	}
	check := func(wheres ...string) {
		for _, where := range wheres {
			sql := "SELECT id FROM f WHERE " + where
			idx, err := eng.Query(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := eng.Query(context.Background(), sql, WithForcedPath("seqscan"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(idx.AccessPath, "index") {
				t.Fatalf("WHERE %s ran %s; the test needs the index path", where, idx.AccessPath)
			}
			if got, want := idsOf(idx), idsOf(seq); got != want {
				t.Errorf("WHERE %s: the index returns %s, the scan %s", where, got, want)
			}
		}
	}
	check("x = 0", "x >= 0 AND x <= 0.5")
	if err := eng.Insert("f", Tuple{Int(20000), Float(math.NaN())}); err != nil {
		t.Fatal(err)
	}
	check("x = 5", "x = 0", "x >= 0 AND x <= 0.5")
}

// idsOf renders a result's first column — the rows' ids — as a sorted
// list with its length.
func idsOf(res *Result) string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].String()
	}
	sort.Strings(out)
	return fmt.Sprintf("%d rows {%s}", len(out), strings.Join(out, ","))
}

package catalog

import (
	"math"
	"testing"

	"minequery/internal/btree"
	"minequery/internal/interval"
	"minequery/internal/storage"
	"minequery/internal/value"
)

func partSchema(t *testing.T) *value.Schema {
	t.Helper()
	return value.MustSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "name", Kind: value.KindString},
	)
}

func intVals(xs ...int64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.Int(x)
	}
	return out
}

func TestCreatePartitionedTableValidation(t *testing.T) {
	s := partSchema(t)
	cases := []struct {
		name   string
		col    string
		bounds []value.Value
	}{
		{"no-such-column", "nope", intVals(10)},
		{"no-bounds", "num", nil},
		{"null-bound", "num", []value.Value{value.Null()}},
		{"kind-mismatch", "num", []value.Value{value.Str("x")}},
		{"not-increasing", "num", intVals(10, 10)},
		{"decreasing", "num", intVals(10, 5)},
		{"too-many", "num", intVals(make([]int64, storage.MaxPartitions)...)},
	}
	for _, tc := range cases {
		c := New()
		if _, err := c.CreatePartitionedTable("t", s, tc.col, tc.bounds); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	c := New()
	if _, err := c.CreatePartitionedTable("t", s, "num", intVals(10, 20)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := c.CreatePartitionedTable("t", s, "num", intVals(10)); err == nil {
		t.Error("duplicate table name should be rejected")
	}
	// FLOAT bounds on an INT column are fine (numeric comparability).
	if _, err := c.CreatePartitionedTable("t2", s, "num", []value.Value{value.Float(9.5)}); err != nil {
		t.Errorf("float bound on int column rejected: %v", err)
	}
}

func TestPartitionForAndInterval(t *testing.T) {
	ps := &PartitionSpec{Column: "num", Ordinal: 1, Bounds: intVals(10, 20, 30)}
	if ps.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", ps.NumPartitions())
	}
	cases := []struct {
		v    value.Value
		want int
	}{
		{value.Null(), 0},
		{value.Int(-5), 0},
		{value.Int(9), 0},
		{value.Int(10), 1}, // lower bound is inclusive
		{value.Int(19), 1},
		{value.Int(20), 2},
		{value.Int(30), 3},
		{value.Int(999), 3},
		{value.Float(9.5), 0},
		{value.Float(10.0), 1},
	}
	for _, tc := range cases {
		if got := ps.Bounds.Stab(tc.v); got != tc.want {
			t.Errorf("Stab(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	last := ps.NumPartitions() - 1
	if f, l := ps.Bounds.Span(interval.Below(value.Int(math.MinInt64), true)); f != 0 || l != 0 {
		t.Errorf("partition 0 must be unbounded below: span %d..%d", f, l)
	}
	if f, l := ps.Bounds.Span(interval.Above(value.Int(math.MaxInt64), true)); f != last || l != last {
		t.Errorf("last partition must be unbounded above: span %d..%d", f, l)
	}
	for p := 1; p <= last; p++ {
		if lo := ps.Bounds[p-1]; ps.Bounds.Stab(lo) != p {
			t.Errorf("partition %d lower bound %v routes to %d", p, lo, ps.Bounds.Stab(lo))
		}
	}
}

func TestPartitionedInsertRoutingAndAnalyze(t *testing.T) {
	c := New()
	tbl, err := c.CreatePartitionedTable("t", partSchema(t), "num", intVals(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", tbl.NumPartitions())
	}
	rows := []struct {
		num      value.Value
		wantPart int
	}{
		{value.Int(5), 0},
		{value.Null(), 0},
		{value.Int(10), 1},
		{value.Int(15), 1},
		{value.Int(25), 2},
		{value.Int(100), 2},
	}
	for i, r := range rows {
		rid, err := tbl.Insert(value.Tuple{value.Int(int64(i)), r.num, value.Str("x")})
		if err != nil {
			t.Fatal(err)
		}
		if part, _ := storage.SplitRID(rid); part != r.wantPart {
			t.Errorf("row %d (num=%v) routed to partition %d, want %d", i, r.num, part, r.wantPart)
		}
		// Round-trip through the RID as an index fetch would.
		got, ok, err := tbl.Fetch(rid)
		if err != nil || !ok || !value.Equal(got[0], value.Int(int64(i))) {
			t.Fatalf("Fetch(%v) = %v, %v, %v", rid, got, ok, err)
		}
	}
	if tbl.Heap.Len() != int64(len(rows)) {
		t.Fatalf("Len = %d", tbl.Heap.Len())
	}

	ts, err := tbl.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if ts.RowCount != int64(len(rows)) {
		t.Errorf("RowCount = %d, want %d", ts.RowCount, len(rows))
	}
	ph := tbl.Heap.(*storage.PartitionedHeap)
	for p := range ph.NumPartitions() {
		if n := ph.Partition(p).Len(); n != 2 {
			t.Errorf("partition %d holds %d rows, want 2", p, n)
		}
	}

	// Indexes backfill over partitioned heaps and carry partition-encoded
	// RIDs.
	ix, err := c.CreateIndex("ix_num", "t", "num")
	if err != nil {
		t.Fatal(err)
	}
	n := ix.Tree.AscendRange(nil, nil, true, true, func(e btree.Entry) bool {
		if _, ok, err := tbl.Fetch(e.RID); !ok || err != nil {
			t.Fatalf("index RID %v not fetchable: %v", e.RID, err)
		}
		return true
	})
	if n != len(rows) {
		t.Errorf("index holds %d entries, want %d", n, len(rows))
	}
}

func TestPartitionPageRanges(t *testing.T) {
	c := New()
	tbl, err := c.CreatePartitionedTable("t", partSchema(t), "num", intVals(10, 20, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Skew: partition 1 empty, partition 3 largest.
	fill := func(num int64, n int) {
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(value.Tuple{value.Int(int64(i)), value.Int(num), value.Str("padpadpadpadpadpad")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(0, 300)
	fill(25, 200)
	fill(99, 900)

	all := tbl.PartitionPageRanges(nil)
	if len(all) != 3 { // partition 1 is empty, dropped
		t.Fatalf("ranges = %v, want 3 non-empty", all)
	}
	// Each range starts at its partition's base, the page address a RID
	// of the partition's first page carries.
	total := 0
	for i, p := range []int{0, 2, 3} {
		if base := int(storage.PartRID(p, storage.RID{}).Page); all[i][0] != base {
			t.Errorf("partition %d range %v does not start at its base %d", p, all[i], base)
		}
		total += all[i][1] - all[i][0]
	}
	if total != tbl.Heap.PageCount() {
		t.Errorf("ranges cover %d pages, heap has %d", total, tbl.Heap.PageCount())
	}

	some := tbl.PartitionPageRanges([]int{0, 1, 3})
	if len(some) != 2 {
		t.Fatalf("subset ranges = %v, want 2 non-empty", some)
	}
	// Scanning the subset ranges yields exactly the rows of those
	// partitions.
	n := 0
	for _, r := range some {
		tbl.Heap.ScanPagesInto(nil, r[0], r[1], 0, nil, func(rid storage.RID, _ []byte) bool {
			p, _ := storage.SplitRID(rid)
			if p != 0 && p != 3 {
				t.Fatalf("subset scan delivered partition %d", p)
			}
			n++
			return true
		})
	}
	if n != 300+900 {
		t.Errorf("subset scan saw %d rows, want %d", n, 1200)
	}

	// Ordinary table: one range covering the whole heap.
	plain, err := c.CreateTable("u", partSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.PartitionPageRanges(nil); got != nil {
		t.Errorf("empty plain table ranges = %v, want nil", got)
	}
	plain.Insert(value.Tuple{value.Int(1), value.Int(1), value.Str("x")})
	if got := plain.PartitionPageRanges(nil); len(got) != 1 || got[0] != [2]int{0, plain.Heap.PageCount()} {
		t.Errorf("plain table ranges = %v", got)
	}
}

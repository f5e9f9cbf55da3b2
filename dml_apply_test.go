package minequery

// The apply half of log-then-apply: a logged row is the stored row, and
// once the log holds a statement, applying it reads nothing from the heap.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"minequery/internal/btree"
	"minequery/internal/storage"
	"minequery/internal/value"
	"minequery/internal/wal"
)

// indexedTable is an engine with t(id INT, v INT) holding 10 rows and
// an index on v, loaded before any WAL is attached.
func indexedTable(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindInt})); err != nil {
		t.Fatal(err)
	}
	rows := make([]Tuple, 10)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Int(int64(i % 4))}
	}
	if err := eng.InsertBatch("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("ix_v", "t", "v"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// tableState renders t's rows as a sorted multiset, once as the heap
// holds them and once as the index on v reaches them.
func tableState(t *testing.T, e *Engine) (heap, viaIndex []string) {
	t.Helper()
	tb, _ := e.cat.Table("t")
	if err := tb.Heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatalf("row at %s: %v", rid, err)
		}
		heap = append(heap, fmt.Sprint(row))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	ix := tb.Indexes()[0] // ix_v, the table's one index
	ix.Tree.AscendRange(nil, nil, true, true, func(en btree.Entry) bool {
		row, ok, err := tb.Fetch(en.RID)
		if err != nil || !ok || !bytes.Equal(ix.KeyFor(row), en.Key) {
			t.Fatalf("index entry %x -> %s: row %v (ok %v, err %v)", en.Key, en.RID, row, ok, err)
		}
		viaIndex = append(viaIndex, fmt.Sprint(row))
		return true
	})
	sort.Strings(heap)
	sort.Strings(viaIndex)
	return heap, viaIndex
}

// TestApplyNeverReadsAfterLog: DELETE and UPDATE take their victims' old
// index keys from the victim scan, before the log append, so apply reads
// nothing from the heap. A random page read that fails after the log
// holds the statement would otherwise leave the live engine between the
// statement's before and after, and a restart would replay it whole.
func TestApplyNeverReadsAfterLog(t *testing.T) {
	for _, tc := range []struct {
		sql      string
		affected int64
	}{
		{"DELETE FROM t WHERE id < 5", 5},
		{"UPDATE t SET v = 99 WHERE id < 5", 5},
	} {
		t.Run(tc.sql, func(t *testing.T) {
			eng := indexedTable(t)
			dev := NewMemWALDevice()
			if _, err := eng.EnableWAL(dev); err != nil {
				t.Fatal(err)
			}
			faults := NewFaultInjector(1, FaultRule{Site: FaultSitePageReadRand, OnHit: 3, Err: ErrInjected})
			eng.SetFaults(faults)
			res, err := eng.Exec(context.Background(), tc.sql)
			eng.SetFaults(nil)
			if n := faults.Hits(FaultSitePageReadRand); n != 0 {
				t.Errorf("the statement read %d heap pages by RID; apply must read none", n)
			}
			if err != nil || res.RowsAffected != tc.affected {
				t.Fatalf("res %+v, err %v; want %d rows affected", res, err, tc.affected)
			}
			live, liveIx := tableState(t, eng)
			rec := indexedTable(t)
			durable, err := dev.Contents()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.EnableWAL(NewMemWALDeviceFrom(durable)); err != nil {
				t.Fatal(err)
			}
			replayed, replayedIx := tableState(t, rec)
			if fmt.Sprint(live) != fmt.Sprint(replayed) {
				t.Fatalf("live rows %v, replayed %v", live, replayed)
			}
			if fmt.Sprint(liveIx) != fmt.Sprint(live) || fmt.Sprint(replayedIx) != fmt.Sprint(replayed) {
				t.Fatalf("the index disagrees with the heap: live %v via index %v, replayed %v via index %v", live, liveIx, replayed, replayedIx)
			}
		})
	}
}

// TestAllocApplyStoresLoggedRecord: applying a logged INSERT stores each
// row's logged bytes and decodes every row into one scratch tuple, so it
// allocates the heap pages the rows fill and nothing per row beyond them.
func TestAllocApplyStoresLoggedRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perValue := float64(unsafe.Sizeof(value.Value{}))
	for _, n := range []int{64, 512} {
		eng := New()
		if err := eng.CreateTable("t", MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindInt},
			Column{Name: "c", Kind: KindInt})); err != nil {
			t.Fatal(err)
		}
		tb, _ := eng.cat.Table("t")
		muts := make([]wal.Mutation, n)
		for i := range muts {
			muts[i] = wal.Mutation{Op: wal.OpInsert, Rec: value.EncodeTuple(nil, Tuple{Int(int64(i)), Int(int64(i * 1000)), Int(-1)})}
		}
		pages := tb.Heap.PageCount()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.writeMu.Lock()
		applied, err := eng.applyDML(tb, muts, nil)
		eng.writeMu.Unlock()
		runtime.ReadMemStats(&after)
		if err != nil || applied != int64(n) {
			t.Fatalf("n=%d: applied %d, err %v", n, applied, err)
		}
		filled := tb.Heap.PageCount() - pages
		perRow := (float64(after.TotalAlloc-before.TotalAlloc) - float64(filled*storage.PageSize)) / float64(n)
		t.Logf("n=%d: %d B, %d pages filled: %.2f B per row beyond them", n, after.TotalAlloc-before.TotalAlloc, filled, perRow)
		if perRow >= perValue {
			t.Errorf("n=%d: apply allocates %.2f B per row beyond the pages the rows fill, at least one Value (%.0f B)", n, perRow, perValue)
		}
		res, err := eng.Query(context.Background(), "SELECT COUNT(*) FROM t WHERE c = -1")
		if err != nil || res.Rows[0][0].AsInt() != int64(n) {
			t.Fatalf("n=%d: %v rows stored, err %v", n, res.Rows, err)
		}
	}
}

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minequery/internal/fault"
)

func TestInsertGetRoundTrip(t *testing.T) {
	h := NewHeap()
	recs := make(map[RID][]byte)
	for i := 0; i < 5000; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, string(make([]byte, i%50))))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		recs[rid] = append([]byte(nil), rec...)
	}
	if h.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", h.Len())
	}
	for rid, want := range recs {
		got, ok, _ := h.GetInto(nil, rid)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) = %q, %v; want %q", rid, got, ok, want)
		}
	}
}

func TestGetMissing(t *testing.T) {
	h := NewHeap()
	if _, ok, _ := h.GetInto(nil, RID{Page: 5, Slot: 0}); ok {
		t.Error("Get on empty heap should fail")
	}
	rid, _ := h.Insert([]byte("x"))
	if _, ok, _ := h.GetInto(nil, RID{Page: rid.Page, Slot: rid.Slot + 10}); ok {
		t.Error("Get of out-of-range slot should fail")
	}
}

func TestInsertTooLarge(t *testing.T) {
	h := NewHeap()
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized record should be rejected")
	}
	if _, err := h.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Errorf("max-size record should fit: %v", err)
	}
}

func TestScanOrderAndCompleteness(t *testing.T) {
	h := NewHeap()
	var rids []RID
	for i := 0; i < 2000; i++ {
		rid, _ := h.Insert([]byte{byte(i), byte(i >> 8)})
		rids = append(rids, rid)
	}
	var seen []RID
	h.Scan(func(r RID, rec []byte) bool {
		seen = append(seen, r)
		return true
	})
	if len(seen) != len(rids) {
		t.Fatalf("scan saw %d records, want %d", len(seen), len(rids))
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i-1].Less(seen[i]) {
			t.Fatal("scan must visit records in heap order")
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 100; i++ {
		h.Insert([]byte{byte(i)})
	}
	n := 0
	h.Scan(func(RID, []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("scan visited %d records after early stop, want 10", n)
	}
}

func TestDelete(t *testing.T) {
	h := NewHeap()
	r1, _ := h.Insert([]byte("a"))
	r2, _ := h.Insert([]byte("b"))
	if !h.Delete(r1) {
		t.Fatal("delete of live record should succeed")
	}
	if h.Delete(r1) {
		t.Error("double delete should fail")
	}
	if h.Len() != 1 {
		t.Errorf("Len after delete = %d, want 1", h.Len())
	}
	if _, ok, _ := h.GetInto(nil, r1); ok {
		t.Error("deleted record should not be fetchable")
	}
	var n int
	h.Scan(func(r RID, _ []byte) bool {
		if r == r1 {
			t.Error("scan must skip deleted records")
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("scan saw %d records, want 1", n)
	}
	if !h.Delete(r2) {
		t.Error("delete of second record should succeed")
	}
	if h.Delete(RID{Page: 99}) {
		t.Error("delete of bad page should fail")
	}
}

func TestIOStatsCounting(t *testing.T) {
	h := NewHeap()
	var rids []RID
	for i := 0; i < 1000; i++ {
		rec := make([]byte, 100)
		rid, _ := h.Insert(rec)
		rids = append(rids, rid)
	}
	if h.PageCount() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.PageCount())
	}
	var scan Counters
	if err := h.ScanPagesInto(&scan, 0, h.PageCount(), 0, nil, func(RID, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if st := scan.Snapshot(); int(st.SeqPageReads) != h.PageCount() || st.TupleReads != 1000 || st.RandPageReads != 0 {
		t.Errorf("scan should read every page and tuple once: %+v over %d pages", st, h.PageCount())
	}
	var fetch Counters
	for _, r := range rids[:10] {
		h.GetInto(&fetch, r)
	}
	if st := fetch.Snapshot(); st.RandPageReads != 10 || st.TupleReads != 10 || st.SeqPageReads != 0 {
		t.Errorf("10 fetches should count 10 random reads and 10 tuples, got %+v", st)
	}
}

func TestRandomizedHeapAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := NewHeap()
	model := map[RID][]byte{}
	var order []RID
	for op := 0; op < 10000; op++ {
		if r.Intn(4) != 0 || len(order) == 0 {
			rec := make([]byte, 1+r.Intn(200))
			r.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = append([]byte(nil), rec...)
			order = append(order, rid)
		} else {
			rid := order[r.Intn(len(order))]
			want := model[rid]
			got, ok, _ := h.GetInto(nil, rid)
			if want == nil {
				if ok {
					t.Fatalf("deleted record %v still readable", rid)
				}
				continue
			}
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get(%v) mismatch", rid)
			}
			if r.Intn(2) == 0 {
				h.Delete(rid)
				model[rid] = nil
			}
		}
	}
	var liveWant int64
	for _, v := range model {
		if v != nil {
			liveWant++
		}
	}
	if h.Len() != liveWant {
		t.Fatalf("Len = %d, model says %d", h.Len(), liveWant)
	}
}

// TestScanPastNilPage pins the ScanPagesInto hole-skipping behaviour: a
// nil page mid-range (a clamp artifact from a range computed against a
// stale directory snapshot, e.g. a morsel laid out while a concurrent
// insert grew the heap) must be skipped, not treated as end-of-heap.
// Records on pages after the hole must still be delivered.
func TestScanPastNilPage(t *testing.T) {
	h := NewHeap()
	rec := make([]byte, 3000) // ~2 records per page
	var perPage [][]RID
	for h.PageCount() < 4 {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if int(rid.Page) >= len(perPage) {
			perPage = append(perPage, nil)
		}
		perPage[rid.Page] = append(perPage[rid.Page], rid)
	}
	// Punch a hole in the directory the way a racing snapshot would see
	// one: page 1 is unreadable from this range's point of view.
	h.mu.Lock()
	h.pages[1] = nil
	h.mu.Unlock()

	var seen []RID
	if err := h.ScanPagesInto(nil, 0, h.PageCount(), 0, nil, func(r RID, _ []byte) bool {
		seen = append(seen, r)
		return true
	}); err != nil {
		t.Fatalf("scan over nil page must not error: %v", err)
	}
	var want []RID
	for pi, rids := range perPage {
		if pi == 1 {
			continue
		}
		want = append(want, rids...)
	}
	if len(seen) != len(want) {
		t.Fatalf("scan past nil page saw %d records, want %d (pages after the hole must be visited)", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("record %d: got %v, want %v", i, seen[i], want[i])
		}
	}
	// The hole must not be charged as a page read.
	sawPage2 := false
	for _, r := range seen {
		if r.Page >= 2 {
			sawPage2 = true
		}
	}
	if !sawPage2 {
		t.Fatal("no records from pages past the hole")
	}
}

// TestScanPagesIntoFit: fit sees each page's live records before the
// page is read, and refusing one ends the scan there with the page
// neither delivered nor counted.
func TestScanPagesIntoFit(t *testing.T) {
	h := NewHeap()
	rec := make([]byte, 1000) // 8 records a page
	var rids []RID
	for h.PageCount() < 4 {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	h.Delete(rids[0]) // page 0 holds one record fewer
	perPage := make([]int, h.PageCount())
	for _, rid := range rids[1:] {
		perPage[rid.Page]++
	}
	var c Counters
	var offered []int
	delivered := 0
	err := h.ScanPagesInto(&c, 0, h.PageCount(), 0, func(live int) bool {
		offered = append(offered, live)
		return delivered+live <= perPage[0]+perPage[1]
	}, func(RID, []byte) bool {
		delivered++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := perPage[:3]; !reflect.DeepEqual(offered, want) {
		t.Errorf("fit was offered %v live records, want %v", offered, want)
	}
	if want := perPage[0] + perPage[1]; delivered != want {
		t.Errorf("delivered %d records, want %d", delivered, want)
	}
	if got := c.SeqPageReads.Load(); got != 2 {
		t.Errorf("%d pages counted, want 2: the refused page is not read", got)
	}
	if got := c.TupleReads.Load(); got != int64(delivered) {
		t.Errorf("%d tuples counted, %d delivered", got, delivered)
	}
}

// TestScanPagesIntoResume: a scan entered past slot 0 of its first page
// goes on where an earlier call stopped in that page. fit is offered the
// page's live records from that slot on, the records before it are not
// delivered again, and the page is neither counted nor faulted again;
// the pages after it are read as usual.
func TestScanPagesIntoResume(t *testing.T) {
	h := NewHeap()
	rec := make([]byte, 1000) // 8 records a page
	for h.PageCount() < 3 {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	h.Delete(RID{Page: 1, Slot: 5})
	inj := fault.NewInjector(1, fault.Rule{Site: fault.SitePageReadSeq, EveryN: 1, Err: fault.ErrInjected})
	h.SetFaults(inj)
	var c Counters
	var offered []int
	var got []RID
	err := h.ScanPagesInto(&c, 1, 2, 3, func(live int) bool {
		offered = append(offered, live)
		return true
	}, func(rid RID, _ []byte) bool {
		got = append(got, rid)
		return true
	})
	if err != nil {
		t.Fatalf("resuming page 1 at slot 3: %v", err)
	}
	want := []RID{{Page: 1, Slot: 3}, {Page: 1, Slot: 4}, {Page: 1, Slot: 6}, {Page: 1, Slot: 7}}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(offered, []int{4}) {
		t.Errorf("resumed page 1 at slot 3: fit offered %v, delivered %v; want [4], %v", offered, got, want)
	}
	if n := inj.Hits(fault.SitePageReadSeq); n != 0 || c.SeqPageReads.Load() != 0 || c.TupleReads.Load() != 4 {
		t.Errorf("a resumed page hit the fault site %d times and counted %d pages, %d tuples; want 0, 0, 4",
			n, c.SeqPageReads.Load(), c.TupleReads.Load())
	}
	if err := h.ScanPagesInto(&c, 1, 3, 3, nil, func(RID, []byte) bool { return true }); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("the page after a resumed one must be read, and faulted, as usual; err = %v", err)
	}
}

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

// TestScanPagesIntoAllocs: the per-page slot snapshot lives on the
// scanner's stack, so a scan allocates nothing — not per record, not per
// page, and not per call, which is what a caller reading one page at a
// time (the executor, to retry page-wise) pays.
func TestScanPagesIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := NewHeap()
	for i := 0; i < 3000; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pages := h.PageCount()
	if pages < 3 {
		t.Fatalf("fixture too small: %d pages", pages)
	}
	var c Counters
	seen := 0
	count := func(RID, []byte) bool { seen++; return true }
	got := testing.AllocsPerRun(20, func() {
		for p := 0; p < pages; p++ {
			if err := h.ScanPagesInto(&c, p, p+1, 0, nil, count); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 0 {
		t.Errorf("%v allocations per page-at-a-time scan of %d pages, want 0", got, pages)
	}
	if seen != 21*3000 {
		t.Errorf("scans delivered %d records, want %d", seen, 21*3000)
	}
}

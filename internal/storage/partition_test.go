package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestPartRIDRoundTrip(t *testing.T) {
	cases := []struct {
		part int
		rid  RID
	}{
		{0, RID{Page: 0, Slot: 0}},
		{0, RID{Page: 12345, Slot: 7}},
		{1, RID{Page: 0, Slot: 3}},
		{255, RID{Page: ridPageMask, Slot: 65535}},
		{17, RID{Page: 42, Slot: 1}},
	}
	for _, c := range cases {
		enc := PartRID(c.part, c.rid)
		part, local := SplitRID(enc)
		if part != c.part || local != c.rid {
			t.Errorf("PartRID(%d, %v) → SplitRID = (%d, %v)", c.part, c.rid, part, local)
		}
	}
}

func TestPartitionedHeapBounds(t *testing.T) {
	if _, err := NewPartitionedHeap(0); err == nil {
		t.Error("0 partitions should be rejected")
	}
	if _, err := NewPartitionedHeap(MaxPartitions + 1); err == nil {
		t.Errorf("%d partitions should be rejected", MaxPartitions+1)
	}
	ph, err := NewPartitionedHeap(MaxPartitions)
	if err != nil {
		t.Fatalf("%d partitions should be accepted: %v", MaxPartitions, err)
	}
	if ph.NumPartitions() != MaxPartitions {
		t.Errorf("NumPartitions = %d", ph.NumPartitions())
	}
	if ph.Partition(-1) != nil || ph.Partition(MaxPartitions) != nil {
		t.Error("out-of-range Partition must return nil")
	}
	if _, err := ph.InsertPart(MaxPartitions, []byte("x")); err == nil {
		t.Error("InsertPart out of range should error")
	}
}

func TestPartitionedHeapRoundTrip(t *testing.T) {
	ph, err := NewPartitionedHeap(4)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[RID][]byte{}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		part := r.Intn(4)
		rec := []byte(fmt.Sprintf("p%d-rec-%d-%s", part, i, string(make([]byte, i%80))))
		rid, err := ph.InsertPart(part, rec)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if gotPart, _ := SplitRID(rid); gotPart != part {
			t.Fatalf("RID %v encodes partition %d, want %d", rid, gotPart, part)
		}
		recs[rid] = append([]byte(nil), rec...)
	}
	if int(ph.Len()) != len(recs) {
		t.Fatalf("Len = %d, want %d", ph.Len(), len(recs))
	}
	for rid, want := range recs {
		got, ok, _ := ph.GetInto(nil, rid)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) = %q, %v; want %q", rid, got, ok, want)
		}
	}
	// Delete a few and confirm scans skip them.
	var deleted RID
	for rid := range recs {
		deleted = rid
		break
	}
	if !ph.Delete(deleted) {
		t.Fatal("delete of live record should succeed")
	}
	if ph.Delete(deleted) {
		t.Error("double delete should fail")
	}
	delete(recs, deleted)

	seen := map[RID][]byte{}
	var order []RID
	if err := ph.Scan(func(rid RID, rec []byte) bool {
		seen[rid] = append([]byte(nil), rec...)
		order = append(order, rid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(recs) {
		t.Fatalf("scan saw %d records, want %d", len(seen), len(recs))
	}
	for rid, want := range recs {
		if !bytes.Equal(seen[rid], want) {
			t.Fatalf("scan record %v mismatch", rid)
		}
	}
	// Heap order: partitions visited in order, RIDs ascending within one.
	for i := 1; i < len(order); i++ {
		p0, l0 := SplitRID(order[i-1])
		p1, l1 := SplitRID(order[i])
		if p0 > p1 || (p0 == p1 && !l0.Less(l1)) {
			t.Fatalf("scan order violated at %d: %v then %v", i, order[i-1], order[i])
		}
	}
}

// TestPartitionedScanPagesRanges pins the page address space: every
// partition's PartitionPageRange starts at its partition's base and
// yields exactly that partition's records, and a range over the whole
// address span splits at partition boundaries correctly.
func TestPartitionedScanPagesRanges(t *testing.T) {
	ph, err := NewPartitionedHeap(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 3000) // ~2 records per page
	counts := []int{5, 0, 9}  // partition 1 deliberately empty
	for part, n := range counts {
		for i := 0; i < n; i++ {
			if _, err := ph.InsertPart(part, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := ph.Partition(0).PageCount() + ph.Partition(2).PageCount(); ph.PageCount() != want {
		t.Fatalf("PageCount = %d, want %d", ph.PageCount(), want)
	}
	span := 3 << ridPageBits // every partition's addresses
	for part := 0; part < 3; part++ {
		lo, hi := ph.PartitionPageRange(part)
		if lo != part<<ridPageBits || hi-lo != ph.Partition(part).PageCount() {
			t.Fatalf("partition %d range [%d,%d), want [%d,+%d)", part, lo, hi, part<<ridPageBits, ph.Partition(part).PageCount())
		}
		n := 0
		err := ph.ScanPagesInto(nil, lo, hi, 0, nil, func(rid RID, _ []byte) bool {
			if p, _ := SplitRID(rid); p != part {
				t.Fatalf("range [%d,%d) of partition %d delivered RID %v from partition %d", lo, hi, part, rid, p)
			}
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != counts[part] {
			t.Fatalf("partition %d scan saw %d records, want %d", part, n, counts[part])
		}
	}
	// A range spanning all partitions equals the full scan.
	n := 0
	if err := ph.ScanPagesInto(nil, 0, span, 0, nil, func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != counts[0]+counts[2] {
		t.Fatalf("full range scan saw %d records, want %d", n, counts[0]+counts[2])
	}
	// Early stop must propagate across partition boundaries.
	n = 0
	ph.ScanPagesInto(nil, 0, span, 0, nil, func(RID, []byte) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d records, want 7", n)
	}
	// Clamping: out-of-range bounds are clamped, not an error.
	n = 0
	if err := ph.ScanPagesInto(nil, -3, span+10, 0, nil, func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != counts[0]+counts[2] {
		t.Fatalf("clamped scan saw %d records, want %d", n, counts[0]+counts[2])
	}
}

func TestPartitionedHeapStats(t *testing.T) {
	ph, err := NewPartitionedHeap(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 3000)
	var rids []RID
	for i := 0; i < 8; i++ {
		rid, _ := ph.InsertPart(i%2, rec)
		rids = append(rids, rid)
	}
	var c Counters
	for p := 0; p < ph.NumPartitions(); p++ {
		lo, hi := ph.PartitionPageRange(p)
		if err := ph.ScanPagesInto(&c, lo, hi, 0, nil, func(RID, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.SeqPageReads.Load(); int(got) != ph.PageCount() {
		t.Errorf("per-query SeqPageReads = %d, want %d", got, ph.PageCount())
	}
	if got := c.TupleReads.Load(); got != 8 {
		t.Errorf("per-query TupleReads = %d, want 8", got)
	}
	var fetch Counters
	ph.GetInto(&fetch, rids[3])
	if st := fetch.Snapshot(); st.RandPageReads != 1 || st.TupleReads != 1 {
		t.Errorf("one fetch counted %+v, want 1 random read and 1 tuple", st)
	}
}

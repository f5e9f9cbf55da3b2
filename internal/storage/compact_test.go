package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// A churned store: a plain heap, or a partitioned one that deals
// records over three partitions, each compacting on its own.
type churned struct {
	name   string
	s      Store
	heaps  []*Heap // the heaps that compact: the store, or its partitions
	insert func(i int, rec []byte) (RID, error)
}

func churnStores(t *testing.T) []churned {
	t.Helper()
	h := NewHeap()
	ph, err := NewPartitionedHeap(3)
	if err != nil {
		t.Fatal(err)
	}
	parts := []*Heap{ph.Partition(0), ph.Partition(1), ph.Partition(2)}
	return []churned{
		{"heap", h, []*Heap{h}, func(_ int, rec []byte) (RID, error) { return h.Insert(rec) }},
		{"partitioned", ph, parts, func(i int, rec []byte) (RID, error) { return ph.InsertPart(i%3, rec) }},
	}
}

// record i's bytes: its number, then a filler whose length varies with i.
func churnRecord(i int) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(i))
	return append(rec, bytes.Repeat([]byte{byte(i)}, 16+i%97)...)
}

// openTails inserts records numbered from next until every heap of c
// has opened a new tail page, and returns the RIDs of what it inserted:
// rids[k] holds churnRecord(next+k).
func openTails(t *testing.T, c churned, next int) (rids []RID) {
	t.Helper()
	before := make([]int, len(c.heaps))
	for i, h := range c.heaps {
		before[i] = h.PageCount()
	}
	for grown := false; !grown; next++ {
		rid, err := c.insert(next, churnRecord(next))
		if err != nil {
			t.Fatal(err)
		}
		rids, grown = append(rids, rid), true
		for i, h := range c.heaps {
			grown = grown && h.PageCount() > before[i]
		}
	}
	return rids
}

// pageOf returns the page object at a heap's page index.
func pageOf(h *Heap, pi int) *page {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.pages[pi]
}

// TestHeapCompactKeepsRIDs: after compaction every live RID fetches the
// bytes it held, deleted slots and trimmed trailing slots fetch nothing,
// a page with nothing live is the shared empty page, and a scan delivers
// exactly the live records in heap order.
func TestHeapCompactKeepsRIDs(t *testing.T) {
	for _, c := range churnStores(t) {
		t.Run(c.name, func(t *testing.T) {
			const n = 3000
			rids := make([]RID, n)
			for i := range n {
				rid, err := c.insert(i, churnRecord(i))
				if err != nil {
					t.Fatal(err)
				}
				rids[i] = rid
			}
			// Three of four records die everywhere, and every record of a
			// run in the middle: pages mostly dead, and pages all dead.
			live := map[RID][]byte{}
			for i, rid := range rids {
				if i%4 != 0 || (i >= 900 && i < 1500) {
					if !c.s.Delete(rid) {
						t.Fatalf("delete %v failed", rid)
					}
				} else {
					live[rid] = churnRecord(i)
				}
			}
			before := SpaceOf(c.s)
			for k, rid := range openTails(t, c, n) {
				live[rid] = churnRecord(n + k)
			}
			after := SpaceOf(c.s)
			if after.Compactions == 0 {
				t.Fatal("no page was compacted")
			}
			if after.Bytes >= before.Bytes {
				t.Errorf("compaction held %d bytes, %d before it and a new tail page", after.Bytes, before.Bytes)
			}
			for i, rid := range rids {
				got, ok, err := c.s.GetInto(nil, rid)
				if err != nil {
					t.Fatal(err)
				}
				if want, isLive := live[rid]; isLive != ok || !bytes.Equal(got, want) {
					t.Fatalf("record %d at %v: fetched %v, %q; want live %v, %q", i, rid, ok, got, isLive, want)
				}
				if !ok && c.s.Delete(rid) {
					t.Fatalf("a deleted record at %v deleted again", rid)
				}
			}
			var scanned []RID
			if err := c.s.Scan(func(rid RID, rec []byte) bool {
				if !bytes.Equal(rec, live[rid]) {
					t.Fatalf("scan at %v delivered %q, want %q", rid, rec, live[rid])
				}
				scanned = append(scanned, rid)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(scanned); i++ {
				if !scanned[i-1].Less(scanned[i]) {
					t.Fatalf("scan out of heap order at %v, %v", scanned[i-1], scanned[i])
				}
			}
			if want := int(c.s.Len()); len(scanned) != want || len(scanned) < len(live) {
				t.Fatalf("scan delivered %d records; %d live", len(scanned), want)
			}
			// The page structure: some page is the empty page, and some
			// kept fewer slots than it had (its trailing slots were dead).
			empty, trimmed := 0, 0
			for _, rid := range rids {
				part, local := SplitRID(rid)
				h := c.heaps[0]
				if len(c.heaps) > 1 {
					h = c.heaps[part]
				}
				p := pageOf(h, int(local.Page))
				empty += b2i(p == emptyPage)
				trimmed += b2i(p != emptyPage && int(local.Slot) >= p.slotCount())
			}
			if empty == 0 || trimmed == 0 {
				t.Errorf("%d records on the empty page, %d in trimmed slots: the fixture should make both", empty, trimmed)
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestHeapCompactSkipsTail: a mostly-dead tail page is never compacted
// while it takes inserts, and its slot numbers keep counting up; once a
// new tail opens behind it, it is.
func TestHeapCompactSkipsTail(t *testing.T) {
	for _, c := range churnStores(t) {
		t.Run(c.name, func(t *testing.T) {
			// Every heap's first page is its tail throughout.
			next, tails := 0, make([]*page, len(c.heaps))
			var rids []RID
			for range 30 {
				rid, err := c.insert(next, churnRecord(next))
				if err != nil {
					t.Fatal(err)
				}
				rids, next = append(rids, rid), next+1
			}
			for _, rid := range rids[:27] {
				c.s.Delete(rid)
			}
			for i, h := range c.heaps {
				if tails[i] = pageOf(h, 0); !tails[i].queued {
					t.Fatalf("heap %d: a tail with most of its records dead is not queued", i)
				}
			}
			for range 6 { // these fit the tails
				rid, err := c.insert(next, churnRecord(next))
				if err != nil {
					t.Fatal(err)
				}
				rids, next = append(rids, rid), next+1
			}
			for i, h := range c.heaps {
				if p := pageOf(h, 0); h.PageCount() != 1 || p != tails[i] {
					t.Fatalf("heap %d: the tail page was swapped while it took inserts", i)
				}
			}
			if sp := SpaceOf(c.s); sp.Compactions != 0 {
				t.Fatalf("%d compactions with no page behind a tail mostly dead", sp.Compactions)
			}
			// Slot numbers on a tail only count up, dead slots or not.
			last := map[int]RID{}
			for _, rid := range rids {
				part, local := SplitRID(rid)
				if prev, ok := last[part]; ok && local != (RID{Page: prev.Page, Slot: prev.Slot + 1}) {
					t.Fatalf("partition %d: %v after %v on the tail", part, local, prev)
				}
				last[part] = local
			}
			for _, rid := range rids[27:] {
				if _, ok, _ := c.s.GetInto(nil, rid); !ok {
					t.Fatalf("tail record %v lost", rid)
				}
			}
			for i := range c.heaps { // a record no tail has room for
				if _, err := c.insert(i, make([]byte, MaxRecordSize)); err != nil {
					t.Fatal(err)
				}
			}
			for i, h := range c.heaps {
				if pageOf(h, 0) == tails[i] {
					t.Fatalf("heap %d: the old tail, mostly dead, was not compacted once a new tail opened", i)
				}
			}
			for _, rid := range rids[27:] {
				if _, ok, _ := c.s.GetInto(nil, rid); !ok {
					t.Fatalf("record %v lost when its page was compacted", rid)
				}
			}
		})
	}
}

// TestHeapCompactUnderScan: a scan that snapshotted a page before it was
// compacted delivers the page's records as they were, and a GetInto
// alias taken before the swap keeps its bytes.
func TestHeapCompactUnderScan(t *testing.T) {
	for _, c := range churnStores(t) {
		t.Run(c.name, func(t *testing.T) {
			rids := openTails(t, c, 0)
			rids = append(rids, openTails(t, c, len(rids))...)
			// Every heap's first page, now behind a tail, turns mostly
			// dead, and so queued.
			want := map[RID][]byte{}
			for k, rid := range rids {
				if _, local := SplitRID(rid); local.Page != 0 {
					continue
				}
				if k%5 != 0 {
					c.s.Delete(rid)
				} else {
					want[rid] = churnRecord(k)
				}
			}
			aliased := rids[0] // record 0 lives: 0%5 == 0
			alias, ok, err := c.s.GetInto(nil, aliased)
			if err != nil || !ok {
				t.Fatalf("GetInto(%v) = %v, %v", aliased, ok, err)
			}
			// Scan each first page; at its first record — its directory
			// snapshotted — compact every heap.
			compacted := false
			got := map[RID][]byte{}
			for i := range c.heaps {
				lo := int(PartRID(i, RID{}).Page)
				err := c.s.ScanPagesInto(nil, lo, lo+1, 0, nil, func(rid RID, rec []byte) bool {
					if !compacted {
						for j := range c.heaps {
							if _, err := c.insert(j, make([]byte, MaxRecordSize)); err != nil {
								t.Fatal(err)
							}
						}
						if SpaceOf(c.s).Compactions != int64(len(c.heaps)) {
							t.Fatalf("%d compactions, want one a heap", SpaceOf(c.s).Compactions)
						}
						compacted = true
					}
					got[rid] = bytes.Clone(rec)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("the scans delivered %d records, %d were live", len(got), len(want))
			}
			for rid, rec := range want {
				if !bytes.Equal(got[rid], rec) {
					t.Fatalf("%v: delivered %q, want %q", rid, got[rid], rec)
				}
			}
			if !bytes.Equal(alias, want[aliased]) {
				t.Errorf("a GetInto alias changed under compaction: %q, want %q", alias, want[aliased])
			}
		})
	}
}

// TestCompactConcurrentScans races writers that delete most of what they
// insert, so pages are compacted all the time, against full scans and
// RID fetches. A record is never torn, a live RID fetches the record it
// was given or nothing once deleted, and a final scan sees exactly the
// live records.
func TestCompactConcurrentScans(t *testing.T) {
	for _, c := range churnStores(t) {
		t.Run(c.name, func(t *testing.T) {
			mk := func(seq uint64) []byte {
				rec := make([]byte, 48+seq%64)
				for i := 0; i+8 <= len(rec); i += 8 {
					binary.LittleEndian.PutUint64(rec[i:], seq)
				}
				return rec
			}
			intact := func(rec []byte) (uint64, bool) {
				seq := binary.LittleEndian.Uint64(rec)
				return seq, bytes.Equal(rec, mk(seq))
			}
			var seq atomic.Uint64
			var given sync.Map // RID -> seq
			stop := make(chan struct{})
			var writers, readers sync.WaitGroup
			for w := range 2 {
				writers.Add(1)
				go func() {
					defer writers.Done()
					var mine []RID
					for i := range 3000 {
						s := seq.Add(1)
						rid, err := c.insert(int(s), mk(s))
						if err != nil {
							t.Error(err)
							return
						}
						given.Store(rid, s)
						if mine = append(mine, rid); i%4 != w {
							victim := mine[len(mine)/2]
							c.s.Delete(victim)
							mine = append(mine[:len(mine)/2], mine[len(mine)/2+1:]...)
						}
					}
				}()
			}
			for range 3 {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := c.s.Scan(func(rid RID, rec []byte) bool {
							s, ok := intact(rec)
							if want, known := given.Load(rid); !ok || (known && want.(uint64) != s) {
								t.Errorf("scan at %v: record of %d torn or misplaced", rid, s)
								return false
							}
							got, live, err := c.s.GetInto(nil, rid)
							if err != nil {
								t.Error(err)
								return false
							}
							if live {
								if gs, ok := intact(got); !ok || gs != s {
									t.Errorf("fetch at %v: got record %d, the scan saw %d", rid, gs, s)
									return false
								}
							}
							return true
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			if SpaceOf(c.s).Compactions == 0 {
				t.Fatal("no page was compacted: the churn is too light")
			}
			var n int64
			if err := c.s.Scan(func(rid RID, rec []byte) bool {
				s, ok := intact(rec)
				if want, _ := given.Load(rid); !ok || want.(uint64) != s {
					t.Fatalf("final scan at %v: record %d, given %v", rid, s, want)
				}
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != c.s.Len() {
				t.Fatalf("final scan saw %d records, live count %d", n, c.s.Len())
			}
		})
	}
}

// TestFootprintHeapAfterChurn: under cycles that delete the oldest rows
// and some random ones and insert as many, the page bytes held per live
// row stay bounded, near what a freshly loaded heap holds, rather than
// growing with the cycles.
func TestFootprintHeapAfterChurn(t *testing.T) {
	for _, c := range churnStores(t) {
		t.Run(c.name, func(t *testing.T) {
			const live, perCycle = 4000, 400
			r := rand.New(rand.NewSource(7))
			var rids []RID
			next := 0
			insert := func(n int) {
				for range n {
					rid, err := c.insert(next, churnRecord(next))
					if err != nil {
						t.Fatal(err)
					}
					rids, next = append(rids, rid), next+1
				}
			}
			insert(live)
			perRow := func() float64 { return float64(SpaceOf(c.s).Bytes) / float64(c.s.Len()) }
			loaded := perRow()
			var atK float64
			for cycle := 1; cycle <= 60; cycle++ {
				for _, rid := range rids[:perCycle] { // the oldest
					c.s.Delete(rid)
				}
				rids = rids[perCycle:]
				for range perCycle / 4 { // an UPDATE's worth, moved to the tail
					k := r.Intn(len(rids))
					c.s.Delete(rids[k])
					rids = append(rids[:k], rids[k+1:]...)
				}
				insert(perCycle + perCycle/4)
				if cycle == 30 {
					atK = perRow()
				}
			}
			at2K := perRow()
			t.Logf("page bytes per live row: %.1f loaded, %.1f after 30 cycles, %.1f after 60 (%d pages, %d compactions)",
				loaded, atK, at2K, SpaceOf(c.s).Pages, SpaceOf(c.s).Compactions)
			if at2K > 2*loaded || at2K > 1.1*atK {
				t.Errorf("page bytes per live row grew with churn: %.1f loaded, %.1f after 30 cycles, %.1f after 60", loaded, atK, at2K)
			}
		})
	}
}

// TestLivePageCountExact: through random inserts and deletes, with pages
// compacting as tails open, a store's LivePageCount is exactly the
// number of pages a scan delivers a record from, while PageCount keeps
// every address it ever opened.
func TestLivePageCountExact(t *testing.T) {
	for _, c := range churnStores(t) {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			var live []RID
			for i := range 6000 {
				rid, err := c.insert(i, churnRecord(i))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, rid)
				if len(live) > 0 && r.Intn(5) > 0 {
					k := r.Intn(min(len(live), 400))
					if !c.s.Delete(live[k]) {
						t.Fatalf("delete %v: no live record", live[k])
					}
					live = append(live[:k], live[k+1:]...)
				}
				if i%500 != 499 {
					continue
				}
				pages := map[uint32]bool{}
				if err := c.s.Scan(func(rid RID, _ []byte) bool {
					pages[rid.Page] = true
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if got := c.s.LivePageCount(); got != len(pages) {
					t.Fatalf("after %d inserts: LivePageCount %d, a scan reads records from %d pages (%d addresses)",
						i+1, got, len(pages), c.s.PageCount())
				}
			}
			t.Logf("%d live records on %d live pages of %d addresses", len(live), c.s.LivePageCount(), c.s.PageCount())
		})
	}
}

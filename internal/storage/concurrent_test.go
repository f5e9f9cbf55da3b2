package storage

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentScanInsertDelete interleaves writers (insert + delete)
// with sequential scans and random fetches. Under -race this pins the
// snapshot-scan locking; the assertions pin record integrity — a scan
// must never observe a torn record, only complete payloads that were
// inserted at some point.
func TestConcurrentScanInsertDelete(t *testing.T) {
	h := NewHeap()
	// Record payload: 8-byte sequence number repeated to fill, so a torn
	// read is detectable.
	mk := func(seq uint64) []byte {
		rec := make([]byte, 64)
		for i := 0; i < len(rec); i += 8 {
			binary.LittleEndian.PutUint64(rec[i:], seq)
		}
		return rec
	}
	const writers = 4
	const perWriter = 2000
	var seq atomic.Uint64
	// live[w] is writer w's records still in the heap: each writer deletes
	// only its own, so no two delete the same record.
	var live [writers][]RID
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := live[w][:0]
			defer func() { live[w] = mine }()
			for i := 0; i < perWriter; i++ {
				s := seq.Add(1)
				rid, err := h.Insert(mk(s))
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, rid)
				if i%7 == 0 {
					// Delete this writer's oldest live record.
					if !h.Delete(mine[0]) {
						t.Errorf("delete %v: no live record", mine[0])
						return
					}
					mine = mine[1:]
				}
			}
		}()
	}
	// Readers: full scans + random gets until writers finish.
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := h.Scan(func(rid RID, rec []byte) bool {
					if len(rec) != 64 {
						t.Errorf("scan %v: bad record length %d", rid, len(rec))
						return false
					}
					want := binary.LittleEndian.Uint64(rec)
					for i := 8; i < len(rec); i += 8 {
						if got := binary.LittleEndian.Uint64(rec[i:]); got != want {
							t.Errorf("scan %v: torn record (%d vs %d)", rid, got, want)
							return false
						}
					}
					_, _, gerr := h.GetInto(nil, rid)
					return gerr == nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	// A final serial scan sees exactly the writers' live records.
	want := map[RID]bool{}
	for _, mine := range live {
		for _, rid := range mine {
			want[rid] = true
		}
	}
	seen := 0
	if err := h.Scan(func(rid RID, _ []byte) bool {
		if !want[rid] {
			t.Errorf("final scan saw %v, which no writer holds live", rid)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) || int64(seen) != h.Len() {
		t.Fatalf("final scan saw %d records, writers hold %d live, live count %d", seen, len(want), h.Len())
	}
}

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
	var rids sync.Map // RID -> struct{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := seq.Add(1)
				rid, err := h.Insert(mk(s))
				if err != nil {
					t.Error(err)
					return
				}
				rids.Store(rid, struct{}{})
				if i%7 == 0 {
					// Delete an arbitrary earlier record.
					rids.Range(func(k, _ any) bool {
						h.Delete(k.(RID))
						rids.Delete(k)
						return false
					})
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
	// A final serial scan sees exactly the live records.
	var n int64
	if err := h.Scan(func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != h.Len() {
		t.Fatalf("final scan saw %d records, live count %d", n, h.Len())
	}
}

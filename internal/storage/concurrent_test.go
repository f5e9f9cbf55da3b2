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
// inserted at some point. Readers are paced: after each pass a reader
// waits until the writers have made passEvery more operations, so its
// passes interleave with the writes for the whole writer phase instead
// of holding them off.
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
	const passEvery = 128 // writer operations between a reader's passes
	var seq atomic.Uint64
	// ops counts the writers' inserts and deletes; progress wakes the
	// readers waiting on it at every multiple of passEvery and when the
	// writers are done.
	var ops atomic.Int64
	var writersDone atomic.Bool
	var progressMu sync.Mutex
	progress := sync.NewCond(&progressMu)
	wrote := func() {
		if ops.Add(1)%passEvery == 0 {
			progressMu.Lock()
			progress.Broadcast()
			progressMu.Unlock()
		}
	}
	// live[w] is writer w's records still in the heap: each writer deletes
	// only its own, so no two delete the same record.
	var live [writers][]RID
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
				wrote()
				if i%7 == 0 {
					// Delete this writer's oldest live record.
					if !h.Delete(mine[0]) {
						t.Errorf("delete %v: no live record", mine[0])
						return
					}
					mine = mine[1:]
					wrote()
				}
			}
		}()
	}
	// Readers: full scans + random gets until writers finish, a pass
	// every passEvery writer operations.
	var readers sync.WaitGroup
	var passes atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !writersDone.Load() {
				next := ops.Load() + passEvery
				passes.Add(1)
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
				progressMu.Lock()
				for ops.Load() < next && !writersDone.Load() {
					progress.Wait()
				}
				progressMu.Unlock()
			}
		}()
	}
	wg.Wait()
	progressMu.Lock()
	writersDone.Store(true)
	progress.Broadcast()
	progressMu.Unlock()
	readers.Wait()
	t.Logf("%d reader passes over %d writer operations", passes.Load(), ops.Load())
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

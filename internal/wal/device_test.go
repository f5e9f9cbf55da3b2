package wal

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// flatDevice is MemDevice as two flat byte slices, durable and pending:
// the reference TestMemDeviceMatchesFlatImage holds the chunked device to.
type flatDevice struct{ durable, pending []byte }

func (f *flatDevice) truncate(n int) {
	n = max(n, 0)
	if n <= len(f.durable) {
		f.durable, f.pending = f.durable[:n], f.pending[:0]
		return
	}
	if k := n - len(f.durable); k < len(f.pending) {
		f.pending = f.pending[:k]
	}
}

func (f *flatDevice) crashImage(keep int) []byte {
	keep = min(max(keep, 0), len(f.pending))
	return append(append([]byte{}, f.durable...), f.pending[:keep]...)
}

// TestMemDeviceMatchesFlatImage: over random writes of up to two chunks,
// syncs and truncates (to chunk boundaries and inside chunks), Contents,
// CrashImage and PendingLen give the flat reference's bytes exactly.
func TestMemDeviceMatchesFlatImage(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		d, ref := NewMemDevice(), &flatDevice{}
		if seed%2 == 1 {
			init := make([]byte, r.Intn(3*memChunk))
			r.Read(init)
			d, ref = NewMemDeviceFrom(init), &flatDevice{durable: append([]byte{}, init...)}
		}
		for step := 0; step < 200; step++ {
			size := len(ref.durable) + len(ref.pending)
			switch op := r.Intn(10); {
			case op < 5:
				p := make([]byte, []int{r.Intn(64), r.Intn(memChunk), r.Intn(2 * memChunk)}[r.Intn(3)])
				r.Read(p)
				if err := d.Write(p); err != nil {
					t.Fatal(err)
				}
				ref.pending = append(ref.pending, p...)
			case op < 7:
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
				ref.durable, ref.pending = append(ref.durable, ref.pending...), ref.pending[:0]
			case op < 8:
				n := []int{r.Intn(size + 1), size / memChunk * memChunk, size + 5, -1}[r.Intn(4)]
				if err := d.Truncate(n); err != nil {
					t.Fatal(err)
				}
				ref.truncate(n)
			default:
				keep := r.Intn(len(ref.pending)+2) - 1
				if got, want := d.CrashImage(keep), ref.crashImage(keep); !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: CrashImage(%d) is %d bytes, want %d", seed, step, keep, len(got), len(want))
				}
			}
			got, err := d.Contents()
			want := append(append([]byte{}, ref.durable...), ref.pending...)
			if err != nil || !bytes.Equal(got, want) || d.PendingLen() != len(ref.pending) {
				t.Fatalf("seed %d step %d: Contents %d bytes (%v), pending %d; want %d bytes, pending %d",
					seed, step, len(got), err, d.PendingLen(), len(want), len(ref.pending))
			}
		}
	}
}

// TestAllocMemDeviceSyncIsLinear: a device that takes N writes, each
// synced, allocates at most the bytes written plus one chunk — a Sync
// copies nothing — on one P with GC off.
func TestAllocMemDeviceSyncIsLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	frame := bytes.Repeat([]byte{0xab}, 97)
	for _, n := range []int{100, 5000} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewMemDevice()
		for i := 0; i < n; i++ {
			if err := d.Write(frame); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		written := n * len(frame)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(written+memChunk) {
			t.Errorf("%d synced writes of %d B allocated %d B; bound %d (written %d + one chunk)",
				n, len(frame), got, written+memChunk, written)
		}
	}
}

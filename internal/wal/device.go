// Package wal is the write-ahead log backing the engine's DML path.
//
// The log is a flat byte stream of self-describing frames appended in
// commit order. Durability is factored behind the Device interface so
// tests can model crashes at exact fsync/append boundaries: MemDevice
// keeps a "durable" image (everything before the last successful Sync)
// separate from a "pending" tail, and can hand back crash images with
// any prefix of the pending bytes — including torn frames. FileDevice
// is the production implementation over an append-only file.
package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Device is the durability boundary under the log. Write appends bytes
// to the tail (buffered — not durable until Sync returns nil). Contents
// returns the current durable image, read once at Open for replay.
// Truncate discards everything past the first n bytes — Open uses it to
// cut a torn/corrupt tail so later appends land at the end of the valid
// prefix, never after garbage that would stop the next replay early.
type Device interface {
	Contents() ([]byte, error)
	Write(p []byte) error
	Sync() error
	Truncate(n int) error
}

// MemDevice is the in-memory Device used by tests and embedded engines.
// It models the kernel page cache: Write lands in pending, Sync moves
// pending into durable. CrashImage exposes what a real disk could hold
// after a crash — the durable bytes plus an arbitrary prefix of the
// un-synced tail (the torn-write model).
//
// The bytes, durable and pending alike, are one stream held in
// fixed-size chunks: a Write copies its bytes once, a full chunk is
// never copied again, and a Sync only moves the durable mark.
type MemDevice struct {
	mu      sync.Mutex
	chunks  [][]byte // each of capacity memChunk; all but the last full
	size    int      // bytes held
	durable int      // bytes before the last Sync
}

// memChunk is the capacity of one MemDevice chunk.
const memChunk = 64 << 10

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// NewMemDeviceFrom returns a device whose durable image is a copy of b
// — the "disk after reboot" for recovery tests.
func NewMemDeviceFrom(b []byte) *MemDevice {
	d := &MemDevice{}
	d.append(b)
	d.durable = d.size
	return d
}

// append copies p onto the end of the stream.
func (d *MemDevice) append(p []byte) {
	for len(p) > 0 {
		last := len(d.chunks) - 1
		if last < 0 || len(d.chunks[last]) == memChunk {
			d.chunks = append(d.chunks, make([]byte, 0, memChunk))
			last++
		}
		c := d.chunks[last]
		k := min(len(p), memChunk-len(c))
		d.chunks[last], p = append(c, p[:k]...), p[k:]
		d.size += k
	}
}

// prefix returns a copy of the first n bytes of the stream.
func (d *MemDevice) prefix(n int) []byte {
	out := make([]byte, 0, n)
	for _, c := range d.chunks {
		if len(out)+len(c) >= n {
			return append(out, c[:n-len(out)]...)
		}
		out = append(out, c...)
	}
	return out
}

// Contents returns a copy of the durable image plus any pending bytes.
// On a live (un-crashed) device the pending tail is still readable,
// exactly as an OS page cache serves un-synced file bytes.
func (d *MemDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.prefix(d.size), nil
}

// Write appends p to the pending (un-synced) tail.
func (d *MemDevice) Write(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.append(p)
	return nil
}

// Sync makes all pending bytes durable.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.durable = d.size
	return nil
}

// Truncate cuts the device's contents (durable image plus pending
// tail, as Contents serves them) to the first n bytes. A cut into the
// durable image is durable at once.
func (d *MemDevice) Truncate(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n = max(n, 0)
	if n >= d.size {
		return nil
	}
	keep := (n + memChunk - 1) / memChunk
	clear(d.chunks[keep:])
	d.chunks = d.chunks[:keep]
	if keep > 0 {
		d.chunks[keep-1] = d.chunks[keep-1][:n-(keep-1)*memChunk]
	}
	d.size, d.durable = n, min(d.durable, n)
	return nil
}

// PendingLen reports how many un-synced bytes the device holds.
func (d *MemDevice) PendingLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size - d.durable
}

// CrashImage returns the bytes a disk could plausibly hold after a
// crash: the durable image plus the first keep bytes of the pending
// tail (clamped to [0, len(pending)]). keep < len(pending) models a
// torn final write; recovery must drop the incomplete frame.
func (d *MemDevice) CrashImage(keep int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	keep = min(max(keep, 0), d.size-d.durable)
	return d.prefix(d.durable + keep)
}

// FileDevice is the production Device: an append-only file whose Sync
// is fsync. Open with OpenFileDevice; Close releases the handle.
type FileDevice struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFileDevice opens (creating if absent) the log file at path for
// appending.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileDevice{f: f}, nil
}

// Contents reads the whole file — the durable image at open time.
func (d *FileDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	b, err := io.ReadAll(d.f)
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	if _, err := d.f.Seek(0, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("wal: seek end: %w", err)
	}
	return b, nil
}

// Write appends to the file.
func (d *FileDevice) Write(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.f.Write(p); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	return nil
}

// Sync fsyncs the file.
func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Truncate cuts the file to n bytes and repositions the write offset
// at the new end. The shrink becomes durable with the next Sync — the
// same fsync that makes the first post-recovery commit durable.
func (d *FileDevice) Truncate(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(int64(n)); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := d.f.Seek(int64(n), io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek after truncate: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// Package storage implements the minequery table heap: slotted pages of
// encoded rows addressed by record identifiers (RIDs). The heap is an
// in-memory paged store, but all access goes through page granularity,
// and every read adds its pages and tuples to the Counters its caller
// passes — the executing query's own — so the executor's cost accounting
// (sequential page reads vs random record fetches) matches the
// access-path behaviour the paper's experiments depend on. The heap
// keeps no counters of its own; a caller that counts nothing passes nil.
//
// Reads are safe to issue from many goroutines at once (the morsel-driven
// parallel scan in internal/exec relies on this): the page directory is
// guarded by an RWMutex and Counters are atomic. Writers (Insert,
// Delete) may interleave freely with in-flight scans: each scan takes a
// point-in-time snapshot of a page's slot directory under the read lock
// and then delivers record bytes lock-free — record payloads are
// immutable once published (Insert only appends into untouched space,
// Delete only zeroes the slot entry), so a scan sees each page as it was
// when the scan reached it, never a torn record.
//
// A page object is swapped as well as appended to: a non-tail page whose
// deleted records passed half of its record bytes is compacted — its live
// records copied, under their slot numbers, into a right-sized page that
// replaces it in the directory (see compacted). The old object is never
// written again, so a scan that snapshotted it and a GetInto alias into
// it stay valid, and every RID stays what it was.
package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"minequery/internal/fault"
)

// PageSize is the fixed size of a heap page in bytes.
const PageSize = 8192

// pageHeaderSize is bytes reserved at the start of each page: slot count.
const pageHeaderSize = 4

// slotSize is bytes per slot directory entry: offset (2) + length (2).
const slotSize = 4

// RID addresses one record in a heap.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Less orders RIDs by page, then slot (heap order).
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// IOStats is a point-in-time snapshot of a Counters: what one execution
// read. Sequential reads are pages touched by scans; random reads are
// pages touched by RID-based fetches (index lookups).
type IOStats struct {
	SeqPageReads  int64
	RandPageReads int64
	// TupleReads counts records materialized (decoded) from the heap,
	// whether via scan or RID fetch; the executor's per-row CPU cost.
	TupleReads int64
}

// Counters is a caller-owned I/O account, the only one there is: the
// reads (ScanPagesInto, GetInto) add their pages and tuples to the one
// they are passed, so each query counts exactly what it read even when
// many queries overlap on the same heap. All fields are atomic:
// morsel-scan workers of one query update a shared Counters
// concurrently.
type Counters struct {
	SeqPageReads  atomic.Int64
	RandPageReads atomic.Int64
	TupleReads    atomic.Int64
}

// Snapshot returns the current counter values as an IOStats.
func (c *Counters) Snapshot() IOStats {
	return IOStats{
		SeqPageReads:  c.SeqPageReads.Load(),
		RandPageReads: c.RandPageReads.Load(),
		TupleReads:    c.TupleReads.Load(),
	}
}

// page is one slotted page. Slots grow from the front after the header;
// record bytes grow from the back. Only the tail page's data is
// PageSize long; a compacted page holds just what it keeps.
type page struct {
	data []byte
	free int // offset of the first record byte: records fill data[free:]
	// dead counts the bytes of deleted records still in data; queued says
	// the page is on its heap's compaction queue; live counts its live
	// records.
	dead   int
	queued bool
	live   int
}

func newPage() *page {
	return &page{data: make([]byte, PageSize), free: PageSize}
}

// emptyPage is what a page compacts to when it has no live record: one
// shared zero-slot page, never written, so a dead page allocates nothing.
var emptyPage = &page{data: make([]byte, pageHeaderSize), free: pageHeaderSize}

// mostlyDead reports whether p's deleted records are over half of its
// record bytes: the compaction rule.
func (p *page) mostlyDead() bool { return 2*p.dead > len(p.data)-p.free }

// compacted returns a page holding p's live records under their slot
// numbers: the header, the directory up to the last live slot, and the
// live bytes, in a buffer of exactly that size. Trailing dead slots are
// trimmed; a page with no live record compacts to emptyPage.
func (p *page) compacted() *page {
	last, live := -1, 0
	for s := range p.slotCount() {
		if _, n := p.slotAt(s); n != 0 {
			last, live = s, live+n
		}
	}
	if last < 0 {
		return emptyPage
	}
	dirEnd := pageHeaderSize + (last+1)*slotSize
	q := &page{data: make([]byte, dirEnd+live), free: dirEnd + live, live: p.live}
	q.setSlotCount(last + 1)
	for s := 0; s <= last; s++ {
		if off, n := p.slotAt(s); n != 0 {
			q.free -= n
			copy(q.data[q.free:], p.data[off:off+n])
			q.setSlot(s, q.free, n)
		}
	}
	return q
}

func (p *page) slotCount() int {
	return int(binary.LittleEndian.Uint32(p.data[0:4]))
}

func (p *page) setSlotCount(n int) {
	binary.LittleEndian.PutUint32(p.data[0:4], uint32(n))
}

func (p *page) slotAt(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	off = int(binary.LittleEndian.Uint16(p.data[base : base+2]))
	length = int(binary.LittleEndian.Uint16(p.data[base+2 : base+4]))
	return off, length
}

func (p *page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.data[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.data[base+2:base+4], uint16(length))
}

// canFit reports whether a record of n bytes plus its slot fits.
func (p *page) canFit(n int) bool {
	slotsEnd := pageHeaderSize + (p.slotCount()+1)*slotSize
	return p.free-n >= slotsEnd
}

// insert places rec in the page and returns its slot number.
func (p *page) insert(rec []byte) int {
	n := p.slotCount()
	p.free -= len(rec)
	copy(p.data[p.free:], rec)
	p.setSlot(n, p.free, len(rec))
	p.setSlotCount(n + 1)
	p.live++
	return n
}

func (p *page) record(slot int) ([]byte, bool) {
	if slot >= p.slotCount() {
		return nil, false
	}
	off, length := p.slotAt(slot)
	if length == 0 {
		return nil, false // deleted
	}
	return p.data[off : off+length], true
}

func (p *page) delete(slot int) bool {
	if slot >= p.slotCount() {
		return false
	}
	off, length := p.slotAt(slot)
	if length == 0 {
		return false
	}
	p.setSlot(slot, off, 0)
	p.dead += length
	p.live--
	return true
}

// Heap is an append-oriented table heap of encoded records.
type Heap struct {
	mu    sync.RWMutex
	pages []*page
	live  atomic.Int64
	// queue holds the indexes of pages that became mostly dead, each
	// once, in the order they did; compactions counts pages compacted;
	// livePages counts the pages holding a live record. All are guarded
	// by mu.
	queue       []int
	compactions int64
	livePages   int

	// faults, when set, is consulted once per page read (sequential and
	// random sites separately) and may inject latency or a typed error.
	// Nil — the production state — costs one atomic pointer load per
	// page, amortized over every tuple on it.
	faults atomic.Pointer[fault.Injector]
}

// SetFaults installs (or, with nil, removes) a fault injector on the
// heap's page-read paths. Safe to call concurrently with reads.
func (h *Heap) SetFaults(in *fault.Injector) { h.faults.Store(in) }

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// MaxRecordSize is the largest record a heap accepts (must fit a page).
const MaxRecordSize = PageSize - pageHeaderSize - slotSize

// Insert appends a record to the tail page and returns its RID. When the
// record opens a new tail page, every queued page, all of them now
// behind the tail, is compacted under the same lock: the heap never
// grows while a page it no longer appends to is mostly dead.
func (h *Heap) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	h.mu.Lock()
	if len(h.pages) == 0 || !h.pages[len(h.pages)-1].canFit(len(rec)) {
		h.pages = append(h.pages, newPage())
		h.compactQueued()
	}
	pi := len(h.pages) - 1
	if h.pages[pi].live == 0 {
		h.livePages++
	}
	slot := h.pages[pi].insert(rec)
	h.mu.Unlock()
	h.live.Add(1)
	return RID{Page: uint32(pi), Slot: uint16(slot)}, nil
}

// GetInto fetches the record at rid as a random page access, adding the
// page read, and the tuple read when the record is live, to c (when
// non-nil). The returned slice aliases page memory and must not be
// retained across writes. A non-nil error is an injected (or, in a
// future disk-backed heap, real) page-read failure; the record result
// is meaningless when err != nil.
func (h *Heap) GetInto(c *Counters, rid RID) ([]byte, bool, error) {
	if err := h.faults.Load().Hit(fault.SitePageReadRand); err != nil {
		return nil, false, fmt.Errorf("storage: random read page %d: %w", rid.Page, err)
	}
	// The slot entry is read under the lock (it may be concurrently
	// zeroed by Delete); the record bytes it points at are immutable, so
	// the returned alias stays valid after unlock.
	h.mu.RLock()
	var rec []byte
	var ok bool
	exists := int(rid.Page) < len(h.pages)
	if exists {
		rec, ok = h.pages[rid.Page].record(int(rid.Slot))
	}
	h.mu.RUnlock()
	if !exists {
		return nil, false, nil
	}
	if c != nil {
		c.RandPageReads.Add(1)
		if ok {
			c.TupleReads.Add(1)
		}
	}
	return rec, ok, nil
}

// Delete marks the record at rid deleted. It reports whether a live
// record was removed. The first time a page's dead bytes pass half of
// its record bytes, the page is queued for the next Insert to compact.
func (h *Heap) Delete(rid RID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(rid.Page) >= len(h.pages) {
		return false
	}
	p := h.pages[rid.Page]
	if !p.delete(int(rid.Slot)) {
		return false
	}
	h.live.Add(-1)
	if p.live == 0 {
		h.livePages--
	}
	if !p.queued && p.mostlyDead() {
		p.queued = true
		h.queue = append(h.queue, int(rid.Page))
	}
	return true
}

// compactQueued swaps each queued page for its compacted copy. Caller
// holds mu for writing and has just opened a new tail, so no queued page
// takes inserts any more. A page queued while it was the tail may have
// taken enough inserts since to be no longer mostly dead: it is left as
// it is, to be queued again if deletes tip it over later.
func (h *Heap) compactQueued() {
	for _, pi := range h.queue {
		p := h.pages[pi]
		if !p.mostlyDead() {
			p.queued = false
			continue
		}
		h.pages[pi] = p.compacted()
		h.compactions++
	}
	h.queue = h.queue[:0]
}

// Scan visits every live record in heap order as a sequential read,
// counting nothing. The callback receives the RID and record bytes;
// returning false stops the scan early. A non-nil error is a page-read
// failure surfaced mid-scan; records visited before it were delivered
// normally.
func (h *Heap) Scan(fn func(RID, []byte) bool) error {
	return h.ScanPagesInto(nil, 0, h.PageCount(), 0, nil, fn)
}

// ScanPagesInto visits the live records of pages [lo, hi) in heap order
// as sequential reads — one morsel of a (possibly parallel) scan — and
// adds its page and tuple reads to c (when non-nil). Bounds are clamped
// to the allocated page range; returning false from the callback stops
// this morsel early. It is safe to call from many goroutines at once
// over disjoint (or even overlapping) ranges. Errors fire at page
// granularity, before any record on the failing page is delivered, so a
// caller that retries the page never double-delivers rows.
//
// Each page's slot directory is snapshotted under the read lock, then
// records are delivered lock-free: the scan observes every page at one
// instant even while writers interleave, and the payload bytes behind a
// snapshotted slot are immutable — a page compacted after its snapshot
// is delivered from the object snapshotted, which is never written again.
// A compacted page still counts as one page read, an empty one included:
// its address is still in the range. fit, when non-nil, is shown the number
// of live records in each page's snapshot — exactly what the page will
// deliver — before the page is read; returning false ends the scan
// there, that page neither read nor counted.
//
// from is the first slot visited on page lo. A scan entered past slot 0
// resumes a page an earlier call stopped in: the page's read was counted
// (and could fail) then, so it is neither counted nor faulted again, and
// fit is shown only its live records from that slot on. Slot numbers
// never move, compaction included, so a resumed page delivers no record
// twice; its rest is snapshotted when it resumes, like a page of its own.
func (h *Heap) ScanPagesInto(c *Counters, lo, hi, from int, fit func(live int) bool, fn func(RID, []byte) bool) error {
	if lo < 0 {
		lo, from = 0, 0
	}
	if n := h.PageCount(); hi > n {
		hi = n
	}
	// The snapshot is the directory's own bytes, copied into a fixed
	// array that does not escape: scanning allocates nothing however
	// many times, or for however few pages, it is called.
	var dir [PageSize]byte
	for pi := lo; pi < hi; pi++ {
		h.mu.RLock()
		var p *page
		if pi < len(h.pages) {
			p = h.pages[pi]
		}
		if p == nil {
			// Page addresses are never freed (a compacted page keeps its
			// address, and one with nothing live is the shared empty
			// page), so a nil page mid-range is a clamp artifact (the range was computed against a different
			// directory snapshot), not end-of-heap: skip it and keep
			// visiting the rest of the morsel rather than silently
			// truncating [pi+1, hi).
			h.mu.RUnlock()
			continue
		}
		n := p.slotCount()
		resumed, first := pi == lo && from > 0, 0
		if resumed {
			first = min(from, n)
		}
		copy(dir[first*slotSize:], p.data[pageHeaderSize+first*slotSize:pageHeaderSize+n*slotSize])
		h.mu.RUnlock()
		if fit != nil && !fit(liveSlots(dir[first*slotSize:n*slotSize])) {
			return nil
		}
		if !resumed {
			if err := h.faults.Load().Hit(fault.SitePageReadSeq); err != nil {
				return fmt.Errorf("storage: sequential read page %d: %w", pi, err)
			}
			if c != nil {
				c.SeqPageReads.Add(1)
			}
		}
		for s := first; s < n; s++ {
			off := int(binary.LittleEndian.Uint16(dir[s*slotSize:]))
			length := int(binary.LittleEndian.Uint16(dir[s*slotSize+2:]))
			if length == 0 {
				continue // deleted
			}
			rec := p.data[off : off+length]
			if c != nil {
				c.TupleReads.Add(1)
			}
			if !fn(RID{Page: uint32(pi), Slot: uint16(s)}, rec) {
				return nil
			}
		}
	}
	return nil
}

// liveSlots counts the slots of a directory snapshot that hold a record.
func liveSlots(dir []byte) int {
	live := 0
	for s := 0; s < len(dir); s += slotSize {
		if binary.LittleEndian.Uint16(dir[s+2:]) != 0 {
			live++
		}
	}
	return live
}

// Len returns the number of live records.
func (h *Heap) Len() int64 { return h.live.Load() }

// Space is what a store's pages hold.
type Space struct {
	// Pages counts page addresses, compacted pages included: a page
	// address is never freed.
	Pages int
	// Bytes is the size of the page buffers held. A compacted page holds
	// only its directory and live records, and an empty one nothing.
	Bytes int64
	// Compactions counts pages compacted since the store was made.
	Compactions int64
}

// SpaceOf returns what s's pages hold, all partitions'.
func SpaceOf(s Store) Space {
	switch s := s.(type) {
	case *Heap:
		return s.space()
	case *PartitionedHeap:
		var sp Space
		for _, h := range s.parts {
			hs := h.space()
			sp.Pages += hs.Pages
			sp.Bytes += hs.Bytes
			sp.Compactions += hs.Compactions
		}
		return sp
	}
	return Space{}
}

func (h *Heap) space() Space {
	h.mu.RLock()
	defer h.mu.RUnlock()
	sp := Space{Pages: len(h.pages), Compactions: h.compactions}
	for _, p := range h.pages {
		if p != emptyPage {
			sp.Bytes += int64(len(p.data))
		}
	}
	return sp
}

// PageCount returns the number of allocated pages: the address range a
// scan covers.
func (h *Heap) PageCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// LivePageCount returns the number of pages holding a live record: the
// pages a scan reads records from. It is kept exact by Insert and Delete;
// compaction moves a page's records and so changes it not at all.
func (h *Heap) LivePageCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.livePages
}

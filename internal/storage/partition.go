// Range-partitioned table storage: a PartitionedHeap is a fixed set of
// ordinary heaps, one per partition, sharing one RID space and one page
// address space. The partition index lives in the high bits of RID.Page,
// so indexes, RID fetches, and deletes work across partitions without
// any schema change; a page is addressed the same way, partition in the
// top bits and its local index below, so page p of partition k has the
// address its records' RIDs carry. The executor's page-range morsels
// address a partitioned table exactly like a single heap — and a pruned
// scan is just a scan over a subset of the partitions' ranges. An
// address never moves: a partition growing mid-scan opens pages at the
// end of its own span, never under a range another partition's pages
// were cut into.
//
// The boundary semantics (which rows route to which partition) are the
// catalog's business: storage only routes by an explicit partition
// number and never inspects record bytes.
package storage

import (
	"fmt"

	"minequery/internal/fault"
)

// Store is the table-storage contract shared by the single Heap and the
// PartitionedHeap. The executor, optimizer, and catalog address tables
// through it, so partitioned and unpartitioned tables run through the
// same scan, fetch, and accounting paths.
type Store interface {
	// GetInto fetches the record at rid as a random page access,
	// counted into c (nil counts nothing).
	GetInto(c *Counters, rid RID) ([]byte, bool, error)
	// Delete marks the record at rid deleted.
	Delete(rid RID) bool
	// Scan visits every live record in heap order as sequential reads,
	// counting nothing.
	Scan(fn func(RID, []byte) bool) error
	// ScanPagesInto visits the live records of the pages addressed
	// [lo, hi), page lo from its slot from on, counted into c, with a
	// fit that may refuse a page before it is read (see
	// Heap.ScanPagesInto).
	ScanPagesInto(c *Counters, lo, hi, from int, fit func(live int) bool, fn func(RID, []byte) bool) error
	// Len returns the number of live records.
	Len() int64
	// PageCount returns the number of allocated pages, all partitions'.
	PageCount() int
	// LivePageCount returns the number of pages holding a live record,
	// all partitions'.
	LivePageCount() int
	// SetFaults installs (or removes) a fault injector on page reads.
	SetFaults(in *fault.Injector)
}

var (
	_ Store = (*Heap)(nil)
	_ Store = (*PartitionedHeap)(nil)
)

// MaxPartitions is the largest partition count a PartitionedHeap
// supports: the partition index is carried in the top bits of RID.Page.
const MaxPartitions = 1 << ridPartBits

// ridPartBits is how many high bits of RID.Page hold the partition
// index, leaving 2^24 pages (~128 GiB) per partition.
const ridPartBits = 8

// ridPageBits is how many low bits of RID.Page, and of a partitioned
// heap's page address, hold the partition-local page index.
const ridPageBits = 32 - ridPartBits

const ridPageMask = (1 << ridPageBits) - 1

// PartRID returns rid (local to partition part) re-addressed into the
// shared RID space of a PartitionedHeap.
func PartRID(part int, rid RID) RID {
	return RID{Page: uint32(part)<<ridPageBits | rid.Page, Slot: rid.Slot}
}

// SplitRID decomposes a PartitionedHeap RID into its partition index and
// the partition-local RID.
func SplitRID(rid RID) (part int, local RID) {
	return int(rid.Page >> ridPageBits), RID{Page: rid.Page & ridPageMask, Slot: rid.Slot}
}

// PartitionedHeap stores one table as a fixed, ordered set of heaps.
// The partition count is immutable after creation; each partition grows
// independently. All Store methods address the table as a whole; the
// per-partition accessors expose the pieces for partition-wise scans
// and statistics.
type PartitionedHeap struct {
	parts []*Heap
}

// NewPartitionedHeap returns an empty partitioned heap with n
// partitions (1 <= n <= MaxPartitions).
func NewPartitionedHeap(n int) (*PartitionedHeap, error) {
	if n < 1 || n > MaxPartitions {
		return nil, fmt.Errorf("storage: partition count %d out of range [1, %d]", n, MaxPartitions)
	}
	ph := &PartitionedHeap{parts: make([]*Heap, n)}
	for i := range ph.parts {
		ph.parts[i] = NewHeap()
	}
	return ph, nil
}

// NumPartitions returns the (fixed) partition count.
func (ph *PartitionedHeap) NumPartitions() int { return len(ph.parts) }

// Partition returns partition p's heap, or nil when out of range. RIDs
// and page indexes obtained from it are partition-local.
func (ph *PartitionedHeap) Partition(p int) *Heap {
	if p < 0 || p >= len(ph.parts) {
		return nil
	}
	return ph.parts[p]
}

// InsertPart appends a record to partition part and returns its RID in
// the shared space.
func (ph *PartitionedHeap) InsertPart(part int, rec []byte) (RID, error) {
	h := ph.Partition(part)
	if h == nil {
		return RID{}, fmt.Errorf("storage: no partition %d (have %d)", part, len(ph.parts))
	}
	rid, err := h.Insert(rec)
	if err != nil {
		return RID{}, err
	}
	if rid.Page > ridPageMask {
		return RID{}, fmt.Errorf("storage: partition %d exceeds %d pages", part, ridPageMask+1)
	}
	return PartRID(part, rid), nil
}

// GetInto implements Store.
func (ph *PartitionedHeap) GetInto(c *Counters, rid RID) ([]byte, bool, error) {
	part, local := SplitRID(rid)
	h := ph.Partition(part)
	if h == nil {
		return nil, false, nil
	}
	return h.GetInto(c, local)
}

// Delete implements Store.
func (ph *PartitionedHeap) Delete(rid RID) bool {
	part, local := SplitRID(rid)
	h := ph.Partition(part)
	if h == nil {
		return false
	}
	return h.Delete(local)
}

// Scan implements Store: partitions are visited in order, so heap order
// is (partition, page, slot).
func (ph *PartitionedHeap) Scan(fn func(RID, []byte) bool) error {
	return ph.ScanPagesInto(nil, 0, len(ph.parts)<<ridPageBits, 0, nil, fn)
}

// ScanPagesInto implements Store over the partitions' page addresses:
// the range is split at partition spans, starting at the partition lo
// names, and each piece delegates to its partition's heap, which clamps
// it to the pages it has, with RIDs re-addressed into the shared space.
// The addresses of a partition's pages do not depend on any other
// partition, so a range cut before a write to any of them reads the
// same pages after it.
func (ph *PartitionedHeap) ScanPagesInto(c *Counters, lo, hi, from int, fit func(live int) bool, fn func(RID, []byte) bool) error {
	if lo < 0 {
		lo, from = 0, 0
	}
	stop := false
	partFit := fit
	if fit != nil {
		partFit = func(live int) bool {
			stop = !fit(live)
			return !stop
		}
	}
	for p := lo >> ridPageBits; p < len(ph.parts) && p<<ridPageBits < hi; p++ {
		base := p << ridPageBits
		if lo < base {
			from = 0 // lo was in an earlier partition
		}
		err := ph.parts[p].ScanPagesInto(c, max(lo-base, 0), hi-base, from, partFit, func(rid RID, rec []byte) bool {
			if !fn(PartRID(p, rid), rec) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// PartitionPageRange returns the addresses of partition p's pages,
// [lo, hi): its span's base and as many pages as it has now. Pages the
// partition opens later lie past hi; no other partition's growth moves
// the range. Out of range, p has an empty range.
func (ph *PartitionedHeap) PartitionPageRange(p int) (lo, hi int) {
	lo = p << ridPageBits
	if h := ph.Partition(p); h != nil {
		return lo, lo + h.PageCount()
	}
	return lo, lo
}

// Len implements Store.
func (ph *PartitionedHeap) Len() int64 {
	var n int64
	for _, h := range ph.parts {
		n += h.Len()
	}
	return n
}

// PageCount implements Store.
func (ph *PartitionedHeap) PageCount() int {
	n := 0
	for _, h := range ph.parts {
		n += h.PageCount()
	}
	return n
}

// LivePageCount implements Store.
func (ph *PartitionedHeap) LivePageCount() int {
	n := 0
	for _, h := range ph.parts {
		n += h.LivePageCount()
	}
	return n
}

// SetFaults implements Store: one injector governs every partition.
func (ph *PartitionedHeap) SetFaults(in *fault.Injector) {
	for _, h := range ph.parts {
		h.SetFaults(in)
	}
}

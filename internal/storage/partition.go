// Range-partitioned table storage: a PartitionedHeap is a fixed set of
// ordinary heaps, one per partition, sharing one RID space and one
// global page-index space. The partition index lives in the high bits of
// RID.Page, so indexes, RID fetches, and deletes work across partitions
// without any schema change; page indexes are globalized by stacking the
// partitions in order, so the executor's page-range morsels address a
// partitioned table exactly like a single heap — and a pruned scan is
// just a scan over a subset of the global ranges.
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
	// Get fetches the record at rid as a random page access.
	Get(rid RID) ([]byte, bool, error)
	// GetInto is Get with per-query accounting attributed to c.
	GetInto(c *Counters, rid RID) ([]byte, bool, error)
	// Delete marks the record at rid deleted.
	Delete(rid RID) bool
	// Scan visits every live record in heap order as sequential reads.
	Scan(fn func(RID, []byte) bool) error
	// ScanPages visits the live records of global pages [lo, hi).
	ScanPages(lo, hi int, fn func(RID, []byte) bool) error
	// ScanPagesInto is ScanPages with per-query accounting, and a fit
	// that may refuse a page before it is read (see Heap.ScanPagesInto).
	ScanPagesInto(c *Counters, lo, hi int, fit func(live int) bool, fn func(RID, []byte) bool) error
	// Len returns the number of live records.
	Len() int64
	// PageCount returns the number of allocated pages (global).
	PageCount() int
	// Stats returns a snapshot of the store's I/O counters.
	Stats() IOStats
	// ResetStats zeroes all I/O counters.
	ResetStats()
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

const ridPageMask = (1 << (32 - ridPartBits)) - 1

// PartRID returns rid (local to partition part) re-addressed into the
// shared RID space of a PartitionedHeap.
func PartRID(part int, rid RID) RID {
	return RID{Page: uint32(part)<<(32-ridPartBits) | rid.Page, Slot: rid.Slot}
}

// SplitRID decomposes a PartitionedHeap RID into its partition index and
// the partition-local RID.
func SplitRID(rid RID) (part int, local RID) {
	return int(rid.Page >> (32 - ridPartBits)), RID{Page: rid.Page & ridPageMask, Slot: rid.Slot}
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

// Get implements Store.
func (ph *PartitionedHeap) Get(rid RID) ([]byte, bool, error) { return ph.GetInto(nil, rid) }

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
	return ph.ScanPagesInto(nil, 0, ph.PageCount(), nil, fn)
}

// ScanPages implements Store.
func (ph *PartitionedHeap) ScanPages(lo, hi int, fn func(RID, []byte) bool) error {
	return ph.ScanPagesInto(nil, lo, hi, nil, fn)
}

// ScanPagesInto implements Store over the global page-index space: page
// counts are snapshotted once per call, the requested range is split at
// partition boundaries, and each piece delegates to its partition's
// heap with RIDs re-addressed into the shared space. As with Heap,
// interleaving writers with an in-flight scan is not supported; a range
// computed against an older snapshot clamps, it never fails.
func (ph *PartitionedHeap) ScanPagesInto(c *Counters, lo, hi int, fit func(live int) bool, fn func(RID, []byte) bool) error {
	if lo < 0 {
		lo = 0
	}
	stop := false
	partFit := fit
	if fit != nil {
		partFit = func(live int) bool {
			stop = !fit(live)
			return !stop
		}
	}
	off := 0
	for p, h := range ph.parts {
		n := h.PageCount()
		plo, phi := lo-off, hi-off
		off += n
		if phi <= 0 {
			break // range ends before this partition
		}
		if plo >= n {
			continue // range starts after this partition
		}
		if plo < 0 {
			plo = 0
		}
		if phi > n {
			phi = n
		}
		part := p
		err := h.ScanPagesInto(c, plo, phi, partFit, func(rid RID, rec []byte) bool {
			if !fn(PartRID(part, rid), rec) {
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

// PartitionPageRange returns partition p's page range in the global
// page-index space, [lo, hi). The range is a point-in-time snapshot:
// earlier partitions growing concurrently would shift it, which — like
// all writer/scan interleaving — is unsupported.
func (ph *PartitionedHeap) PartitionPageRange(p int) (lo, hi int) {
	off := 0
	for i, h := range ph.parts {
		n := h.PageCount()
		if i == p {
			return off, off + n
		}
		off += n
	}
	return off, off
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

// Stats implements Store: the sum of the per-partition counters.
func (ph *PartitionedHeap) Stats() IOStats {
	var s IOStats
	for _, h := range ph.parts {
		st := h.Stats()
		s.SeqPageReads += st.SeqPageReads
		s.RandPageReads += st.RandPageReads
		s.PageWrites += st.PageWrites
		s.TupleReads += st.TupleReads
	}
	return s
}

// ResetStats implements Store.
func (ph *PartitionedHeap) ResetStats() {
	for _, h := range ph.parts {
		h.ResetStats()
	}
}

// SetFaults implements Store: one injector governs every partition.
func (ph *PartitionedHeap) SetFaults(in *fault.Injector) {
	for _, h := range ph.parts {
		h.SetFaults(in)
	}
}

package catalog

import (
	"fmt"

	"minequery/internal/interval"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// PartitionSpec describes the range partitioning of a table: one
// partition column and a strictly increasing list of split points.
// n bounds define n+1 partitions; partition i holds rows with
// Bounds[i-1] <= v < Bounds[i] (the first and last partitions are
// unbounded below and above respectively), and NULL partition-column
// values route to partition 0. The spec is immutable after creation —
// that immutability is what lets the optimizer prune partitions from
// cached plans without revalidating boundaries per execution.
type PartitionSpec struct {
	Column  string
	Ordinal int
	Bounds  interval.Cuts
}

// NumPartitions returns the partition count implied by the bounds.
func (ps *PartitionSpec) NumPartitions() int { return ps.Bounds.Segments() }

// CreatePartitionedTable registers a new empty range-partitioned table.
// Bounds must be non-null, strictly increasing, and of a kind
// comparable to the partition column (numeric bounds for numeric
// columns, string bounds for text columns).
func (c *Catalog) CreatePartitionedTable(name string, schema *value.Schema, partCol string, bounds []value.Value) (*Table, error) {
	ord := schema.Ordinal(partCol)
	if ord < 0 {
		return nil, fmt.Errorf("catalog: create table %q: no partition column %q", name, partCol)
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("catalog: create table %q: partitioning needs at least one bound", name)
	}
	if len(bounds)+1 > storage.MaxPartitions {
		return nil, fmt.Errorf("catalog: create table %q: %d partitions exceeds the maximum of %d",
			name, len(bounds)+1, storage.MaxPartitions)
	}
	colKind := schema.Col(ord).Kind
	colNumeric := colKind == value.KindInt || colKind == value.KindFloat
	for i, b := range bounds {
		if b.IsNull() {
			return nil, fmt.Errorf("catalog: create table %q: partition bound %d is NULL", name, i)
		}
		bNumeric := b.Kind() == value.KindInt || b.Kind() == value.KindFloat
		if bNumeric != colNumeric {
			return nil, fmt.Errorf("catalog: create table %q: partition bound %d kind %s does not match column %s kind %s",
				name, i, b.Kind(), partCol, colKind)
		}
		if i > 0 && value.Compare(bounds[i-1], b) >= 0 {
			return nil, fmt.Errorf("catalog: create table %q: partition bounds must be strictly increasing (bound %d)", name, i)
		}
	}
	ph, err := storage.NewPartitionedHeap(len(bounds) + 1)
	if err != nil {
		return nil, fmt.Errorf("catalog: create table %q: %w", name, err)
	}
	spec := &PartitionSpec{
		Column:  schema.Col(ord).Name,
		Ordinal: ord,
		Bounds:  append([]value.Value(nil), bounds...),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[key(name)]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema, Heap: ph, Part: spec}
	if c.faults != nil {
		t.Heap.SetFaults(c.faults)
	}
	c.tables[key(name)] = t
	return t, nil
}

// partHeap returns the table's partitioned heap, or nil for ordinary
// tables.
func (t *Table) partHeap() *storage.PartitionedHeap {
	if t.Part == nil {
		return nil
	}
	ph, _ := t.Heap.(*storage.PartitionedHeap)
	return ph
}

// insertRecord stores rec, the encoding of an (already type-checked) row,
// in the table's store, routing by partition bound for partitioned
// tables, and adds the row to every index. The heap copies rec into its
// page: the caller's bytes are not kept.
func (t *Table) insertRecord(row value.Tuple, rec []byte) (storage.RID, error) {
	// Any insert stales the columnar sidecar until the next rebuild.
	t.writeVer.Add(1)
	var rid storage.RID
	var err error
	if ph := t.partHeap(); ph != nil {
		rid, err = ph.InsertPart(t.Part.Bounds.Stab(row[t.Part.Ordinal]), rec)
	} else if h, ok := t.Heap.(*storage.Heap); ok {
		rid, err = h.Insert(rec)
	} else {
		err = fmt.Errorf("catalog: table %s: unsupported store %T", t.Name, t.Heap)
	}
	if err != nil {
		return storage.RID{}, err
	}
	for _, ix := range t.Indexes() {
		ix.Tree.Insert(ix.KeyFor(row), rid)
	}
	return rid, nil
}

// NumPartitions returns the table's partition count (1 for ordinary
// tables).
func (t *Table) NumPartitions() int {
	if t.Part == nil {
		return 1
	}
	return t.Part.NumPartitions()
}

// PartitionSizes returns the pages holding a live record and the live
// rows across the given partitions (nil = all; for ordinary tables, the
// whole heap). The optimizer costs a pruned scan from these instead of
// whole-table totals, and from pages of data rather than of write
// history: a page address is never freed, so PageCount grows with
// every page the table ever opened.
func (t *Table) PartitionSizes(parts []int) (pages int, rows int64) {
	ph := t.partHeap()
	if ph == nil {
		return t.Heap.LivePageCount(), t.Heap.Len()
	}
	if parts == nil {
		return ph.LivePageCount(), ph.Len()
	}
	for _, p := range parts {
		if h := ph.Partition(p); h != nil {
			pages += h.LivePageCount()
			rows += h.Len()
		}
	}
	return pages, rows
}

// PartitionPageRanges returns the page addresses [lo, hi) of each of the
// requested partitions (storage.PartitionedHeap.PartitionPageRange), in
// partition order, dropping empty ranges. parts == nil means all
// partitions. For an ordinary table it returns the single range covering
// the whole heap. Each range holds the pages its partition has now, and
// a write anywhere leaves it addressing the same pages — the executor
// cuts its scans and morsels from them once, at build, so morsels never
// straddle a partition boundary.
func (t *Table) PartitionPageRanges(parts []int) [][2]int {
	ph := t.partHeap()
	if ph == nil {
		if n := t.Heap.PageCount(); n > 0 {
			return [][2]int{{0, n}}
		}
		return nil
	}
	if parts == nil {
		parts = make([]int, ph.NumPartitions())
		for i := range parts {
			parts[i] = i
		}
	}
	var out [][2]int
	for _, p := range parts {
		lo, hi := ph.PartitionPageRange(p)
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

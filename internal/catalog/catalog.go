// Package catalog tracks the named objects of a minequery database:
// tables (with their heaps, statistics, and indexes) and mining models
// (with their precomputed per-class upper envelopes). The envelope cache
// is versioned per model so that plans exploiting envelopes can be
// invalidated when a model is retrained, as Section 4.2 of the paper
// requires.
package catalog

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"minequery/internal/btree"
	"minequery/internal/expr"
	"minequery/internal/fault"
	"minequery/internal/mining"
	"minequery/internal/stats"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// Index is a secondary index over one or more columns of a table.
type Index struct {
	Name     string
	Table    string
	Columns  []string
	Ordinals []int
	Tree     *btree.Tree
}

// KeyFor builds the index key bytes for row t.
func (ix *Index) KeyFor(t value.Tuple) []byte {
	var key []byte
	for _, o := range ix.Ordinals {
		key = t[o].SortKey(key)
	}
	return key
}

// Table is a stored relation. Index and statistics access is guarded so
// concurrent readers (parallel scan workers, the optimizer) can share a
// table while indexes are created or stats refreshed.
type Table struct {
	Name   string
	Schema *value.Schema
	Heap   storage.Store
	// Part describes the table's range partitioning; nil for ordinary
	// tables. When non-nil, Heap is a *storage.PartitionedHeap with
	// Part.NumPartitions() partitions. Immutable after creation.
	Part *PartitionSpec

	// writeVer counts row writes (inserts, deletes, updates); the
	// columnar sidecar pins it at build time and is bypassed once they
	// diverge (see ColumnStore).
	writeVer atomic.Int64

	mu      sync.RWMutex
	indexes []*Index
	stats   *stats.TableStats

	// Columnar sidecar state (see colstore.go): colEnabled is the
	// opt-in flag, colStore the derived column groups, colVer the
	// writeVer the store was built at.
	colEnabled bool
	colStore   *storage.ColumnStore
	colVer     int64

	// narrowed caches NarrowSchema's schemas, keyed by mask.
	narrowMu sync.RWMutex
	narrowed map[string]*value.Schema
}

// NarrowSchema is the schema of the rows a scan decodes under need
// (value.DecodeTupleInto's mask): the table's columns need marks, in
// table order, or the whole schema for a nil need. Each mask's schema is
// built once, and every later call for it allocates nothing.
func (t *Table) NarrowSchema(need []bool) *value.Schema {
	if need == nil {
		return t.Schema
	}
	// The key is the mask as bytes, on the stack for any table of up to
	// 64 columns; indexing a map by string(key) does not copy it.
	var buf [64]byte
	key := buf[:0]
	for _, on := range need {
		b := byte(0)
		if on {
			b = 1
		}
		key = append(key, b)
	}
	t.narrowMu.RLock()
	s, ok := t.narrowed[string(key)]
	t.narrowMu.RUnlock()
	if ok {
		return s
	}
	cols := make([]value.Column, 0, len(need))
	for o, on := range need {
		if on {
			cols = append(cols, t.Schema.Col(o))
		}
	}
	// A subset of a valid schema's columns cannot hold a duplicate.
	s = value.MustSchema(cols...)
	t.narrowMu.Lock()
	defer t.narrowMu.Unlock()
	if prev, ok := t.narrowed[string(key)]; ok {
		return prev
	}
	if t.narrowed == nil {
		t.narrowed = map[string]*value.Schema{}
	}
	t.narrowed[string(key)] = s
	return s
}

// Indexes returns a snapshot of the table's secondary indexes.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Index(nil), t.indexes...)
}

// Stats returns the most recently computed statistics (nil before the
// first Analyze).
func (t *Table) Stats() *stats.TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats
}

// Analyze recomputes table statistics from the heap in one build over
// all its rows; a partitioned table's heap scans its partitions in
// order, so its statistics are those of an ordinary table holding the
// same rows. On a page-read failure, or a record that does not decode,
// the partial statistics are discarded and the previous ones kept, so
// the optimizer never costs plans from a truncated sample.
func (t *Table) Analyze() (*stats.TableStats, error) {
	var err error
	var tup value.Tuple
	var strs value.StringTable
	ts := stats.Build(t.Schema, t.Heap.Len(), func(emit func(value.Tuple)) {
		scanErr := t.Heap.Scan(func(rid storage.RID, rec []byte) bool {
			// One tuple serves every row: the builder keeps no row, and
			// a TEXT value is decoded into a string of its own once per
			// distinct string, not once per row. A record of the wrong
			// shape for the schema is as corrupt as one that does not
			// decode.
			var row value.Tuple
			if tup, err = strs.DecodeTupleInto(tup, rec, nil); err == nil {
				row, _, err = t.normalize(tup)
			}
			if err != nil {
				err = fmt.Errorf("corrupt row at %s: %w", rid, err)
				return false
			}
			emit(row)
			return true
		})
		if err == nil {
			err = scanErr
		}
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: analyze %s: %w", t.Name, err)
	}
	t.mu.Lock()
	t.stats = ts
	t.mu.Unlock()
	if t.ColumnarEnabled() {
		if err := t.rebuildColumnStore(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// NormalizeRow validates row against the table schema and returns the
// storable form: arity and per-column kind are checked, and INT values
// widen into FLOAT columns (on a clone — the caller's tuple is never
// mutated). The write path normalizes before logging so the WAL holds
// exactly the bytes the heap will store.
func (t *Table) NormalizeRow(row value.Tuple) (value.Tuple, error) {
	row, _, err := t.normalize(row)
	return row, err
}

// normalize is NormalizeRow, reporting whether the storable form differs
// from row (an INT widened into a FLOAT column).
func (t *Table) normalize(row value.Tuple) (value.Tuple, bool, error) {
	if len(row) != t.Schema.Len() {
		return nil, false, fmt.Errorf("catalog: table %s: row arity %d, schema arity %d", t.Name, len(row), t.Schema.Len())
	}
	widened := false
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		want := t.Schema.Col(i).Kind
		got := v.Kind()
		// INT widens into FLOAT columns.
		if got == value.KindInt && want == value.KindFloat {
			if !widened {
				row, widened = row.Clone(), true
			}
			row[i] = value.Float(v.AsFloat())
			continue
		}
		if got != want {
			return nil, false, fmt.Errorf("catalog: table %s column %s: value kind %s, want %s",
				t.Name, t.Schema.Col(i).Name, got, want)
		}
	}
	return row, widened, nil
}

// Insert appends a row, maintaining all indexes. The row is encoded once,
// into the bytes the heap stores.
func (t *Table) Insert(row value.Tuple) (storage.RID, error) {
	row, err := t.NormalizeRow(row)
	if err != nil {
		return storage.RID{}, err
	}
	return t.insertRecord(row, value.EncodeTuple(make([]byte, 0, value.EncodedLen(row)), row))
}

// InsertRecord appends the row rec encodes (value.EncodeTuple bytes, as a
// WAL mutation logs them), maintaining all indexes, and is how a logged
// insert is applied. rec is decoded into scratch (value.DecodeTupleInto:
// reallocated only when the row does not fit), which validates every
// field, and the row is type-checked as Insert's is; the heap then stores
// rec itself, re-encoded only if normalization changed the row. The row
// is returned for the caller to decode the next record into.
func (t *Table) InsertRecord(rec []byte, scratch value.Tuple) (storage.RID, value.Tuple, error) {
	row, rec, err := t.decodeRecord(rec, scratch)
	if err != nil {
		return storage.RID{}, nil, err
	}
	rid, err := t.insertRecord(row, rec)
	return rid, row, err
}

// decodeRecord decodes rec into scratch and normalizes the row, returning
// it with the bytes the heap is to store: rec, or the normalized row's
// encoding when normalization changed it. A logged row was normalized
// before it was logged, so it does not change; a replayed log is not
// trusted to hold only such rows.
func (t *Table) decodeRecord(rec []byte, scratch value.Tuple) (value.Tuple, []byte, error) {
	row, err := value.DecodeTupleInto(scratch, rec, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("catalog: table %s: corrupt record: %w", t.Name, err)
	}
	norm, widened, err := t.normalize(row)
	if err != nil {
		return nil, nil, err
	}
	if widened {
		rec = value.EncodeTuple(make([]byte, 0, value.EncodedLen(norm)), norm)
	}
	return norm, rec, nil
}

// Delete removes the row at rid, maintaining all indexes, and reports
// whether a live row was removed: DeleteRecord with no pre-image.
func (t *Table) Delete(rid storage.RID) (bool, error) {
	return t.DeleteRecord(rid, nil)
}

// DeleteRecord removes the row at rid, maintaining all indexes, and
// reports whether a live row was removed. Like Insert it bumps the
// table's write version, so columnar sidecars built before the delete go
// stale. old, when non-nil, is the row at rid as stored, and the old
// index keys are taken from it; with old nil a table with indexes fetches
// the row for them, and one without reads nothing.
func (t *Table) DeleteRecord(rid storage.RID, old value.Tuple) (bool, error) {
	ixs := t.Indexes()
	if old == nil && len(ixs) > 0 {
		row, ok, err := t.Fetch(rid)
		if err != nil || !ok {
			return false, err
		}
		old = row
	}
	if !t.Heap.Delete(rid) {
		return false, nil
	}
	t.writeVer.Add(1)
	for _, ix := range ixs {
		ix.Tree.Delete(ix.KeyFor(old), rid)
	}
	return true, nil
}

// UpdateRecord replaces the row at rid, whose pre-image is old (as
// DeleteRecord's), with the row rec encodes (as InsertRecord's, decoded
// into scratch): the old row is deleted and the new one appended at the
// end of the heap (possibly in a different partition), returning the new
// RID and the decoded row. The new row is decoded and checked before the
// old one is touched. Update-moves-to-end keeps RID assignment a pure
// function of the operation sequence, which the WAL replay path depends
// on.
func (t *Table) UpdateRecord(rid storage.RID, old value.Tuple, rec []byte, scratch value.Tuple) (storage.RID, value.Tuple, error) {
	row, rec, err := t.decodeRecord(rec, scratch)
	if err != nil {
		return storage.RID{}, nil, err
	}
	removed, err := t.DeleteRecord(rid, old)
	if err != nil {
		return storage.RID{}, nil, err
	}
	if !removed {
		return storage.RID{}, nil, fmt.Errorf("catalog: table %s: update of missing row %s", t.Name, rid)
	}
	rid, err = t.insertRecord(row, rec)
	return rid, row, err
}

// Fetch decodes the row at rid.
func (t *Table) Fetch(rid storage.RID) (value.Tuple, bool, error) {
	return t.FetchInto(nil, rid, nil, nil)
}

// FetchInto is Fetch with per-query I/O accounting attributed to c
// (when non-nil; Fetch counts nothing), decoding the columns need marks
// (nil for all; the row then has NarrowSchema(need)) into dst
// (value.DecodeTupleInto: reallocated only when they do not fit
// cap(dst)).
func (t *Table) FetchInto(c *storage.Counters, rid storage.RID, dst value.Tuple, need []bool) (value.Tuple, bool, error) {
	rec, ok, err := t.Heap.GetInto(c, rid)
	if err != nil {
		return nil, false, fmt.Errorf("catalog: table %s: fetch %s: %w", t.Name, rid, err)
	}
	if !ok {
		return nil, false, nil
	}
	tup, err := value.DecodeTupleInto(dst, rec, need)
	if err != nil {
		return nil, false, fmt.Errorf("catalog: table %s: corrupt row at %s: %w", t.Name, rid, err)
	}
	return tup, true, nil
}

// FindIndex returns the index with the given leading columns (exact
// prefix match on names, case-insensitive), or nil.
func (t *Table) FindIndex(leading ...string) *Index {
	for _, ix := range t.Indexes() {
		if len(ix.Columns) < len(leading) {
			continue
		}
		match := true
		for i, c := range leading {
			if !strings.EqualFold(ix.Columns[i], c) {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// ModelEntry is a registered mining model plus its envelope cache.
type ModelEntry struct {
	Model   mining.Model
	Version int64
	// Fingerprint is a stable content hash of the model's metadata and
	// its envelope set: two registrations of behaviourally identical
	// models share a fingerprint across versions, while any change to the
	// envelopes (retraining on different data) changes it. Caches keyed
	// by fingerprint therefore never serve stale envelopes.
	Fingerprint string
	// envelopes maps class-label key to the precomputed upper envelope
	// for M.PredictColumn = class.
	envelopes map[string]expr.Expr
}

// fingerprint hashes the model metadata together with the envelope
// predicates, sorted by class key for determinism.
func fingerprint(m mining.Model, envelopes map[string]expr.Expr) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|", mining.Fingerprint(m))
	keys := make([]string, 0, len(envelopes))
	for k := range envelopes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s|", k, envelopes[k].String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Envelope returns the cached upper envelope for the given class label
// and the model version it was computed at. ok is false if no envelope
// is cached for the class.
func (me *ModelEntry) Envelope(class value.Value) (e expr.Expr, version int64, ok bool) {
	var buf [64]byte
	e, ok = me.envelopes[string(class.Append(buf[:0]))]
	return e, me.Version, ok
}

// Classes proxies the model's class enumeration.
func (me *ModelEntry) Classes() []value.Value { return me.Model.Classes() }

// PredictionKind is the kind of the value a prediction join of this
// model appends to a row: the kind of its class labels (string for a
// model without classes).
func (me *ModelEntry) PredictionKind() value.Kind {
	if cls := me.Model.Classes(); len(cls) > 0 {
		return cls[0].Kind()
	}
	return value.KindString
}

// PredictionColumn is the column `PREDICTION JOIN model AS alias` adds
// to a row: "alias.predcol", lowercased. Everything that names, types
// or resolves a predicted column asks here.
func (me *ModelEntry) PredictionColumn(alias string) value.Column {
	return value.Column{
		Name: strings.ToLower(alias + "." + me.Model.PredictColumn()),
		Kind: me.PredictionKind(),
	}
}

// InvalidationEvent describes a catalog change that can stale cached
// plans or envelope compositions: model registration/retraining or
// removal, index creation or removal, and statistics refresh. Epoch is
// the catalog epoch after the change.
type InvalidationEvent struct {
	// Reason is one of "model-registered", "model-dropped",
	// "index-created", "index-dropped", "stats-refreshed",
	// "columnar-enabled".
	Reason string
	// Table names the affected table ("" for model events).
	Table string
	// Model names the affected model ("" for table events).
	Model string
	// Epoch is the catalog epoch after the change.
	Epoch int64
}

// Catalog is the namespace of tables and models.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	models map[string]*ModelEntry

	// faults, when set, is installed on every table heap — existing and
	// future — so one injector governs all storage-layer fault sites.
	faults *fault.Injector

	// epoch increments on every change that can invalidate a cached
	// plan. Plan caches snapshot it at prepare time and compare before
	// reuse.
	epoch atomic.Int64

	lmu       sync.Mutex
	listeners []func(InvalidationEvent)
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		models: make(map[string]*ModelEntry),
	}
}

// Epoch returns the current invalidation epoch. Any cached artifact
// derived from catalog state (parsed plans, envelope compositions) is
// safe to reuse only while the epoch is unchanged.
func (c *Catalog) Epoch() int64 { return c.epoch.Load() }

// OnInvalidate registers a listener called (synchronously, outside
// catalog locks) after every invalidating change. Listeners must not
// block; they may call back into the catalog.
func (c *Catalog) OnInvalidate(fn func(InvalidationEvent)) {
	c.lmu.Lock()
	c.listeners = append(c.listeners, fn)
	c.lmu.Unlock()
}

// invalidate bumps the epoch and notifies listeners. Callers must not
// hold c.mu (listeners may re-enter the catalog).
func (c *Catalog) invalidate(reason, table, model string) {
	ev := InvalidationEvent{Reason: reason, Table: table, Model: model, Epoch: c.epoch.Add(1)}
	c.lmu.Lock()
	ls := make([]func(InvalidationEvent), len(c.listeners))
	copy(ls, c.listeners)
	c.lmu.Unlock()
	for _, fn := range ls {
		fn(ev)
	}
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a new empty table.
func (c *Catalog) CreateTable(name string, schema *value.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[key(name)]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema, Heap: storage.NewHeap()}
	if c.faults != nil {
		t.Heap.SetFaults(c.faults)
	}
	c.tables[key(name)] = t
	return t, nil
}

// SetFaults installs (or, with nil, removes) a fault injector on every
// table heap in the catalog, including tables created later.
func (c *Catalog) SetFaults(in *fault.Injector) {
	c.mu.Lock()
	c.faults = in
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.Unlock()
	for _, t := range tables {
		t.Heap.SetFaults(in)
	}
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateIndex builds a new index over existing rows of a table.
func (c *Catalog) CreateIndex(name, table string, columns ...string) (*Index, error) {
	t, ok := c.Table(table)
	if !ok {
		return nil, fmt.Errorf("catalog: create index %q: no table %q", name, table)
	}
	ords := make([]int, len(columns))
	for i, col := range columns {
		o := t.Schema.Ordinal(col)
		if o < 0 {
			return nil, fmt.Errorf("catalog: create index %q: no column %q in %s", name, col, table)
		}
		ords[i] = o
	}
	t.mu.Lock()
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.Name, name) {
			t.mu.Unlock()
			return nil, fmt.Errorf("catalog: index %q already exists on %s", name, table)
		}
	}
	ix := &Index{Name: name, Table: t.Name, Columns: columns, Ordinals: ords, Tree: btree.New(64)}
	t.indexes = append(t.indexes, ix)
	t.mu.Unlock()
	// Backfill outside the table lock.
	var buildErr error
	scanErr := t.Heap.Scan(func(rid storage.RID, rec []byte) bool {
		tup, err := value.DecodeTuple(rec)
		if err != nil {
			buildErr = err
			return false
		}
		ix.Tree.Insert(ix.KeyFor(tup), rid)
		return true
	})
	if buildErr == nil {
		buildErr = scanErr
	}
	if buildErr != nil {
		// Unregister the half-built index: leaving it visible would let
		// the optimizer pick an access path that silently misses rows.
		t.mu.Lock()
		for i, reg := range t.indexes {
			if reg == ix {
				t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
		return nil, fmt.Errorf("catalog: create index %q: %w", name, buildErr)
	}
	c.invalidate("index-created", t.Name, "")
	return ix, nil
}

// DropIndexes removes all indexes from a table (used between tuning
// rounds in the experiment harness).
func (c *Catalog) DropIndexes(table string) error {
	t, ok := c.Table(table)
	if !ok {
		return fmt.Errorf("catalog: drop indexes: no table %q", table)
	}
	t.mu.Lock()
	t.indexes = nil
	t.mu.Unlock()
	c.invalidate("index-dropped", t.Name, "")
	return nil
}

// Analyze refreshes a table's optimizer statistics and notifies plan
// caches (fresh statistics can change the preferred access path, so
// prepared plans should be re-optimized).
func (c *Catalog) Analyze(table string) (*stats.TableStats, error) {
	t, ok := c.Table(table)
	if !ok {
		return nil, fmt.Errorf("catalog: analyze: no table %q", table)
	}
	ts, err := t.Analyze()
	if err != nil {
		return nil, err
	}
	c.invalidate("stats-refreshed", t.Name, "")
	return ts, nil
}

// RegisterModel registers (or replaces) a mining model together with its
// precomputed per-class upper envelopes. Re-registering bumps the model
// version, invalidating plans that used the previous envelopes.
func (c *Catalog) RegisterModel(m mining.Model, envelopes map[string]expr.Expr) *ModelEntry {
	c.mu.Lock()
	prev := c.models[key(m.Name())]
	ver := int64(1)
	if prev != nil {
		ver = prev.Version + 1
	}
	me := &ModelEntry{Model: m, Version: ver, Fingerprint: fingerprint(m, envelopes), envelopes: envelopes}
	c.models[key(m.Name())] = me
	c.mu.Unlock()
	c.invalidate("model-registered", "", m.Name())
	return me
}

// DropModel removes a model. Queries referencing it fail to prepare, and
// prepared plans exploiting its envelopes are invalidated.
func (c *Catalog) DropModel(name string) error {
	c.mu.Lock()
	if _, ok := c.models[key(name)]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("catalog: drop model: no model %q", name)
	}
	delete(c.models, key(name))
	c.mu.Unlock()
	c.invalidate("model-dropped", "", name)
	return nil
}

// Model looks up a model entry by name.
func (c *Catalog) Model(name string) (*ModelEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	me, ok := c.models[key(name)]
	return me, ok
}

// Models returns all model entries sorted by name.
func (c *Catalog) Models() []*ModelEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*ModelEntry, 0, len(c.models))
	for _, m := range c.models {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model.Name() < out[j].Model.Name() })
	return out
}

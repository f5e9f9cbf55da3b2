// Columnar opt-in: a table may carry a column-group sidecar derived
// from its row heap (see storage.BuildColumnStore). The heap remains
// the source of truth; the sidecar is versioned against the table's
// write counter and silently bypassed once any write — insert, delete
// or update — lands after the build, so a columnar plan can never
// observe rows the row path would not, nor miss or keep any it would.
// Analyze rebuilds the sidecar, the natural "refresh statistics and
// derived structures" point.
package catalog

import (
	"fmt"

	"minequery/internal/storage"
	"minequery/internal/value"
)

// EnableColumnar builds (or rebuilds) the table's column-group sidecar
// and keeps it maintained across future Analyze calls. Scans of the
// table become eligible for the vectorized columnar path; writes after
// the build make the sidecar stale, falling scans back to the row heap
// until the next Analyze or EnableColumnar.
func (t *Table) EnableColumnar() error {
	t.mu.Lock()
	t.colEnabled = true
	t.mu.Unlock()
	return t.rebuildColumnStore()
}

// ColumnarEnabled reports whether the table has opted into the columnar
// sidecar (regardless of freshness).
func (t *Table) ColumnarEnabled() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.colEnabled
}

// ColumnStore returns the columnar sidecar if it is enabled and fresh —
// built at the table's current write version — and nil otherwise. A nil
// return routes the scan to the row heap; the plan's columnar flag is a
// hint, not a contract.
func (t *Table) ColumnStore() *storage.ColumnStore {
	ver := t.writeVer.Load()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.colEnabled || t.colStore == nil || t.colVer != ver {
		return nil
	}
	return t.colStore
}

// ColumnarReady reports whether scans can use the columnar sidecar
// right now (enabled and fresh). The optimizer consults this when
// costing and flagging sequential scans.
func (t *Table) ColumnarReady() bool { return t.ColumnStore() != nil }

// rebuildColumnStore derives the sidecar from the heap. The write
// version is pinned before the scan: a write racing the build makes
// the result immediately stale rather than silently incomplete.
func (t *Table) rebuildColumnStore() error {
	ver := t.writeVer.Load()
	kinds := make([]value.Kind, t.Schema.Len())
	for i := range kinds {
		kinds[i] = t.Schema.Col(i).Kind
	}
	cs, err := storage.BuildColumnStore(t.Heap, kinds, storage.ColGroupRows)
	if err != nil {
		return fmt.Errorf("catalog: build column store for %s: %w", t.Name, err)
	}
	t.mu.Lock()
	t.colStore = cs
	t.colVer = ver
	t.mu.Unlock()
	return nil
}

// EnableColumnar opts a table into the columnar sidecar and notifies
// plan caches (scan costing changes, so prepared plans should
// re-optimize).
func (c *Catalog) EnableColumnar(table string) error {
	t, ok := c.Table(table)
	if !ok {
		return fmt.Errorf("catalog: enable columnar: no table %q", table)
	}
	if err := t.EnableColumnar(); err != nil {
		return err
	}
	c.invalidate("columnar-enabled", t.Name, "")
	return nil
}

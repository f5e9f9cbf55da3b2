package minequery

import "minequery/internal/storage"

// TableSpace returns what a table's pages hold (storage.SpaceOf), for
// the package's external tests.
func TableSpace(e *Engine, table string) storage.Space {
	tb, ok := e.cat.Table(table)
	if !ok {
		return storage.Space{}
	}
	return storage.SpaceOf(tb.Heap)
}

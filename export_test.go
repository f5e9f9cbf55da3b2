package minequery

import (
	"fmt"

	"minequery/internal/opt"
	"minequery/internal/sqlparse"
	"minequery/internal/storage"
)

// TableSpace returns what a table's pages hold (storage.SpaceOf), for
// the package's external tests.
func TableSpace(e *Engine, table string) storage.Space {
	tb, ok := e.cat.Table(table)
	if !ok {
		return storage.Space{}
	}
	return storage.SpaceOf(tb.Heap)
}

// ScanCost returns the optimizer's sequential-scan cost for a selection
// of where over table (opt.ChooseAccessPath under the engine's optimizer
// settings), for the package's external tests.
func ScanCost(e *Engine, table, where string) (float64, error) {
	tb, ok := e.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("no table %q", table)
	}
	q, err := sqlparse.Parse("SELECT * FROM " + table + " WHERE " + where)
	if err != nil {
		return 0, err
	}
	return opt.ChooseAccessPath(tb, q.Where, e.optCfg).ScanCost, nil
}

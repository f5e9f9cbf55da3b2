package exec

import (
	"context"
	"fmt"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// MatchedRow is one row selected by a DML predicate: the RID to mutate
// and the decoded tuple (needed to build an updated row and to maintain
// indexes).
type MatchedRow struct {
	RID storage.RID
	Row value.Tuple
}

// CollectMatches scans t and returns every live row matching pred (nil
// matches everything), in heap order. It is the read side of
// UPDATE/DELETE: the engine collects the victim set first, then applies
// the mutations, so a statement never observes its own writes. The scan
// goes through the same page reader as queries (scanPages), so
// injected transient page faults are retried, not surfaced.
func CollectMatches(ctx context.Context, t *catalog.Table, pred expr.Expr, opts Options) ([]MatchedRow, error) {
	var out []MatchedRow
	err := scanPages(ctx, t, opts, 0, t.Heap.PageCount(), func(rid storage.RID, tup value.Tuple) bool {
		if pred == nil || pred.Eval(t.Schema, tup) {
			out = append(out, MatchedRow{RID: rid, Row: tup})
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("exec: dml: %w", err)
	}
	return out, nil
}

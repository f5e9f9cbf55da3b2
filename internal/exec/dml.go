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
// goes through the same page reader as queries (pageReader), so
// injected transient page faults are retried, not surfaced. To find the
// victims only the columns pred reads are decoded, every row into one
// scratch tuple under the schema narrowed to them; a victim's record is
// then decoded whole, into the fresh row the engine rebuilds the updated
// row and the index keys from.
func CollectMatches(ctx context.Context, t *catalog.Table, pred expr.Expr, opts Options) ([]MatchedRow, error) {
	var out []MatchedRow
	need := columnMask(t.Schema, expr.Columns(pred))
	schema := t.NarrowSchema(need)
	scratch := make(value.Tuple, 0, schema.Len())
	dst := func() value.Tuple { return scratch }
	pages := newPageReader(ctx, t, opts, need, nil, dst, func(rid storage.RID, rec []byte, tup value.Tuple) bool {
		if pred == nil || pred.Eval(schema, tup) {
			// rec has just been decoded under the mask, which validates
			// every field of it: decoding it again cannot fail.
			row, _ := value.DecodeTuple(rec)
			out = append(out, MatchedRow{RID: rid, Row: row})
		}
		return true
	})
	if _, err := pages.read(0, t.Heap.PageCount()); err != nil {
		return nil, fmt.Errorf("exec: dml: %w", err)
	}
	return out, nil
}

package exec

import (
	"context"
	"fmt"
	"slices"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/recycle"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// victims is what a victim scan gathers its matches in.
type victims struct {
	rids []storage.RID
	rows []value.Tuple
}

// victimScratch recycles victim scans' gathering slices, so that what
// CollectMatches returns is sized to the matches: a victim costs its RID,
// and its row when the caller reads one, and nothing for the slices'
// growth.
var victimScratch recycle.Pool[victims]

// CollectMatches scans t and returns the RID of every live row matching
// pred (nil matches everything), in heap order. It is the read side of
// UPDATE/DELETE: the engine collects the victim set first, then applies
// the mutations, so a statement never observes its own writes. The scan
// goes through the same page reader as queries (pageReader), so
// injected transient page faults are retried, not surfaced.
//
// To find the victims only the columns pred reads are decoded, every row
// into one scratch tuple under the schema narrowed to them. need marks
// the columns the caller reads of a victim, as Table.FetchInto's does
// (nil for all): rows[i] holds those of rids[i]'s row, decoded afresh
// under t.NarrowSchema(need). When need marks none, no victim is decoded
// again and rows is nil.
func CollectMatches(ctx context.Context, t *catalog.Table, pred expr.Expr, need []bool, opts Options) ([]storage.RID, []value.Tuple, error) {
	keepRows, width := need == nil || slices.Contains(need, true), 0
	if keepRows {
		width = t.NarrowSchema(need).Len()
	}
	v := victimScratch.Get()
	defer func() {
		clear(v.rows)
		v.rids, v.rows = v.rids[:0], v.rows[:0]
		victimScratch.Put(v)
	}()
	predNeed := columnMask(t.Schema, expr.Columns(pred))
	schema := t.NarrowSchema(predNeed)
	scratch := make(value.Tuple, 0, schema.Len())
	dst := func() value.Tuple { return scratch }
	pages := newPageReader(ctx, t, opts, predNeed, nil, dst, func(rid storage.RID, rec []byte, tup value.Tuple) bool {
		if pred != nil && !pred.Eval(schema, tup) {
			return true
		}
		v.rids = append(v.rids, rid)
		if keepRows {
			// rec has just been decoded under the predicate's mask, which
			// validates every field of it: decoding it again cannot fail.
			row, _ := value.DecodeTupleInto(make(value.Tuple, 0, width), rec, need)
			v.rows = append(v.rows, row)
		}
		return true
	})
	for _, r := range t.PartitionPageRanges(nil) {
		pages.seek(r[0])
		if err := pages.read(r[1]); err != nil {
			return nil, nil, fmt.Errorf("exec: dml: %w", err)
		}
	}
	var rows []value.Tuple
	if keepRows {
		rows = slices.Clone(v.rows)
	}
	return slices.Clone(v.rids), rows, nil
}

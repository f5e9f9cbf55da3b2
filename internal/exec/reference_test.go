package exec

import (
	"fmt"

	"minequery/internal/catalog"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// refRun is the oracle the operator tests compare against: it evaluates
// a plan by definition, one row at a time, sharing no code with the
// operators under test — a full heap scan, expr.Eval per filter,
// Model.Predict per prediction join. No batching, retry, cancellation,
// fault or accounting code runs. Only the logical shapes the tests use
// as ground truth are supported (no index access paths, no partition
// lists, no aggregates).
func refRun(c *catalog.Catalog, n plan.Node) ([]value.Tuple, *value.Schema, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		t, ok := c.Table(x.Table)
		if !ok {
			return nil, nil, fmt.Errorf("reference: no table %q", x.Table)
		}
		if x.Partitions != nil {
			return nil, nil, fmt.Errorf("reference: partition-pruned scan of %s", x.Table)
		}
		var rows []value.Tuple
		var derr error
		err := t.Heap.Scan(func(_ storage.RID, rec []byte) bool {
			var row value.Tuple
			if row, derr = value.DecodeTuple(rec); derr != nil {
				return false
			}
			rows = append(rows, row)
			return true
		})
		if err == nil {
			err = derr
		}
		return rows, t.Schema, err
	case *plan.ConstScan:
		t, ok := c.Table(x.Table)
		if !ok {
			return nil, nil, fmt.Errorf("reference: no table %q", x.Table)
		}
		return nil, t.Schema, nil
	case *plan.Filter:
		in, schema, err := refRun(c, x.Child)
		if err != nil {
			return nil, nil, err
		}
		var rows []value.Tuple
		for _, row := range in {
			if x.Pred.Eval(schema, row) {
				rows = append(rows, row)
			}
		}
		return rows, schema, nil
	case *plan.Project:
		in, schema, err := refRun(c, x.Child)
		if err != nil || len(x.Cols) == 0 {
			return in, schema, err
		}
		ords := make([]int, len(x.Cols))
		cols := make([]value.Column, len(x.Cols))
		for i, name := range x.Cols {
			if ords[i] = schema.Ordinal(name); ords[i] < 0 {
				return nil, nil, fmt.Errorf("reference: no column %q", name)
			}
			cols[i] = schema.Col(ords[i])
		}
		rows := make([]value.Tuple, len(in))
		for r, row := range in {
			for _, o := range ords {
				rows[r] = append(rows[r], row[o])
			}
		}
		return rows, value.MustSchema(cols...), nil
	case *plan.Predict:
		in, schema, err := refRun(c, x.Child)
		if err != nil {
			return nil, nil, err
		}
		me, ok := c.Model(x.Model)
		if !ok {
			return nil, nil, fmt.Errorf("reference: no model %q", x.Model)
		}
		rows := make([]value.Tuple, len(in))
		for r, row := range in {
			var input value.Tuple
			for _, name := range me.Model.InputColumns() {
				input = append(input, row[schema.Ordinal(name)])
			}
			rows[r] = append(append(value.Tuple(nil), row...), me.Model.Predict(input))
		}
		kind := value.KindString
		if cls := me.Model.Classes(); len(cls) > 0 {
			kind = cls[0].Kind()
		}
		cols := append(append([]value.Column(nil), schema.Columns...), value.Column{Name: x.As, Kind: kind})
		return rows, value.MustSchema(cols...), nil
	case *plan.Limit:
		rows, schema, err := refRun(c, x.Child)
		if err == nil && int64(len(rows)) > x.N {
			rows = rows[:x.N]
		}
		return rows, schema, err
	}
	return nil, nil, fmt.Errorf("reference: unsupported plan node %T", n)
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"minequery/internal/agg"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/qerr"
	"minequery/internal/value"
)

// TestBoundRunChecksModelVersion: a Bound keeps the model entry each
// Predict bound, but every run looks the model up again. Once the
// version a plan pinned has moved, running the Bound fails with
// qerr.ErrPlanInvalidated — as a row plan and as a partial aggregate —
// instead of predicting with the model it bound. An unpinned plan runs
// on, re-bound to the model now registered.
func TestBoundRunChecksModelVersion(t *testing.T) {
	c, _ := testDB(t, 300)
	me := c.RegisterModel(catModel{}, nil)
	predict := func(version int64) *plan.Predict {
		return &plan.Predict{Child: &plan.SeqScan{Table: "t"}, Model: "catmod", As: "m.cls", Version: version}
	}
	rows := func(p *plan.Predict) plan.Node { return &plan.Project{Child: p, Cols: []string{"id", "m.cls"}} }
	grouped := func(p *plan.Predict) plan.Node {
		return aggPlan(p, []string{"m.cls"}, []agg.Item{{Func: agg.None, Col: "m.cls"}, {Func: agg.Count, Star: true}})
	}
	run := func(b *Bound, root plan.Node) (string, error) {
		if part := partialOf(root); part != nil {
			tab, err := b.RunPartialAgg(context.Background(), part, Options{DOP: 1})
			if err != nil {
				return "", err
			}
			return fmt.Sprint(rowsToStrings(tab.Finalize())), nil
		}
		var out RowBuffer
		_, err := b.Drain(context.Background(), Options{DOP: 1}, &out)
		return fmt.Sprint(rowsToStrings(out.Rows)), err
	}
	type bound struct {
		root plan.Node
		b    *Bound
		want string
	}
	var pinned, unpinned []bound
	for _, shape := range []func(*plan.Predict) plan.Node{rows, grouped} {
		for _, version := range []int64{me.Version, 0} {
			root := shape(predict(version))
			b, err := Bind(c, root)
			if err != nil {
				t.Fatal(err)
			}
			var first string
			for i := 0; i < 2; i++ {
				got, err := run(b, root)
				if err != nil {
					t.Fatalf("%s run %d: %v", plan.Signature(root), i+1, err)
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Fatalf("%s: the second run of a Bound differs from the first", plan.Signature(root))
				}
			}
			if version == 0 {
				unpinned = append(unpinned, bound{root, b, first})
			} else {
				pinned = append(pinned, bound{root, b, first})
			}
		}
	}
	c.RegisterModel(catModel{}, nil) // retrain bumps the version
	for _, x := range pinned {
		if _, err := run(x.b, x.root); !errors.Is(err, qerr.ErrPlanInvalidated) {
			t.Errorf("%s: err = %v, want ErrPlanInvalidated for a Bound pinned to a stale model version", plan.Signature(x.root), err)
		}
	}
	for _, x := range unpinned {
		if got, err := run(x.b, x.root); err != nil || got != x.want {
			t.Errorf("%s: an unpinned Bound after a retrain: err = %v, rows changed = %v", plan.Signature(x.root), err, got != x.want)
		}
	}
}

// partialOf returns the Partial of a split aggregate at root, or nil.
func partialOf(root plan.Node) *plan.HashAgg {
	if h, ok := root.(*plan.HashAgg); ok && h.Phase == plan.AggFinal {
		return h.Child.(*plan.HashAgg)
	}
	return nil
}

// TestBoundRebindsForBaseline: a Bound made without an envelope
// baseline decodes only what the plan reads; a run whose collector
// re-checks a baseline over other columns binds afresh, so that its
// leaf decodes them and the rejections split by cause, and the kept
// Bound is left as it was.
func TestBoundRebindsForBaseline(t *testing.T) {
	c, _ := testDB(t, 400)
	filter := &plan.Filter{Child: &plan.SeqScan{Table: "t"}, Pred: expr.Cmp{Col: "id", Op: expr.OpLt, Val: value.Int(100)}}
	root := &plan.Project{Child: filter, Cols: []string{"id"}}
	b, err := Bind(c, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := schemaNames(b.cols.schema); got != "id" {
		t.Fatalf("the kept Bound's leaf decodes %q, want \"id\"", got)
	}
	col := NewCollector()
	col.SetEnvelopeBaseline(filter, expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("c2")})
	var out RowBuffer
	if _, err := b.Drain(context.Background(), Options{DOP: 1, Collector: col}, &out); err != nil {
		t.Fatal(err)
	}
	st := col.Op(filter)
	env, resid := st.EnvRejected.Load(), st.ResidRejected.Load()
	if len(out.Rows) != 100 || env == 0 || resid == 0 || env+resid != 300 {
		t.Fatalf("%d rows, rejections env=%d resid=%d: want 100 rows and 300 rejections split both ways", len(out.Rows), env, resid)
	}
	if got := schemaNames(b.cols.schema); got != "id" || b.attributed {
		t.Fatalf("an attributed run changed the kept Bound: its leaf decodes %q", got)
	}
}

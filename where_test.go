package minequery

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestWhereMeansOneThing: a WHERE with a NOT selects the same rows in a
// SELECT, a DELETE, an UPDATE, a subscription and a CREATE MODEL view,
// on a row table and on a columnar one. A NOT holds where its negation
// normal form does, so a NULL fails both `age <= 3` and `NOT (age <= 3)`
// wherever the WHERE is evaluated, and whether or not the planner's
// normal form stays within its disjunct budget.
//
// The table has 70 rows: id i, and for i < 60 age i % 6 and label
// 'set'; the last ten have a NULL age and label 'null', so a view that
// trains on one of them shows 'null' among its model's classes.
func TestWhereMeansOneThing(t *testing.T) {
	// disjuncts is NOT over n two-atom disjuncts, age = k AND id >= 48
	// for k < n. Its negation normal form has 2^n disjuncts: 256, the
	// planner's budget, at 8, and twice that at 9. No row has age 8.
	disjuncts := func(n int) string {
		terms := make([]string, n)
		for k := range terms {
			terms[k] = fmt.Sprintf("(age = %d AND id >= 48)", k)
		}
		return "NOT (" + strings.Join(terms, " OR ") + ")"
	}
	shapes := []struct {
		name, where string
		want        int
	}{
		{"cmp", "NOT (age <= 3)", 20},
		// age > 3 OR id >= 65: five NULL-age rows pass on the id.
		{"and", "NOT (age <= 3 AND id < 65)", 25},
		{"or", "NOT (age <= 1 OR age >= 5)", 30},
		{"in", "NOT (age IN (0, 1, 2))", 30},
		{"8 disjuncts", disjuncts(8), 48},
		{"9 disjuncts", disjuncts(9), 48},
	}
	ctx := context.Background()
	for _, columnar := range []bool{false, true} {
		for i, sh := range shapes {
			t.Run(fmt.Sprintf("columnar=%v/%s", columnar, sh.name), func(t *testing.T) {
				eng := New()
				if err := eng.CreateTable("t", MustSchema(
					Column{Name: "id", Kind: KindInt}, Column{Name: "age", Kind: KindInt}, Column{Name: "lbl", Kind: KindString},
				)); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Subscribe("SELECT id FROM t WHERE " + sh.where); err != nil {
					t.Fatal(err)
				}
				var rows []string
				for id := range 70 {
					if id < 60 {
						rows = append(rows, fmt.Sprintf("(%d, %d, 'set')", id, id%6))
					} else {
						rows = append(rows, fmt.Sprintf("(%d, NULL, 'null')", id))
					}
				}
				if _, err := eng.Exec(ctx, "INSERT INTO t (id, age, lbl) VALUES "+strings.Join(rows, ", ")); err != nil {
					t.Fatal(err)
				}
				notified := len(drainNotifications(t, eng))
				if columnar {
					if err := eng.EnableColumnar("t"); err != nil {
						t.Fatal(err)
					}
				}

				res, err := eng.Query(ctx, "SELECT id, lbl FROM t WHERE "+sh.where)
				if err != nil {
					t.Fatal(err)
				}
				if format := map[bool]string{false: "row", true: "columnar"}[columnar]; res.StorageFormat != format {
					t.Fatalf("SELECT read the table as %q, want %q", res.StorageFormat, format)
				}
				selected := len(res.Rows)
				if selected != sh.want {
					t.Errorf("SELECT returned %d rows, want %d", selected, sh.want)
				}
				var labels []string
				for _, r := range res.Rows {
					if l := r[1].AsString(); !slices.Contains(labels, l) {
						labels = append(labels, l)
					}
				}
				if notified != selected {
					t.Errorf("subscription notified of %d inserted rows, SELECT returned %d", notified, selected)
				}

				cm, err := eng.Exec(ctx, fmt.Sprintf(
					"CREATE MODEL m%d ON t PREDICT lbl USING dtree AS SELECT id, age, lbl FROM t WHERE %s", i, sh.where))
				if err != nil {
					t.Fatal(err)
				}
				var classes []string
				for _, c := range cm.Model.Classes {
					classes = append(classes, c.AsString())
				}
				slices.Sort(labels)
				slices.Sort(classes)
				if !slices.Equal(classes, labels) {
					t.Errorf("CREATE MODEL view trained on classes %v, SELECT returned labels %v", classes, labels)
				}

				for _, dml := range []string{"UPDATE t SET lbl = 'upd' WHERE ", "DELETE FROM t WHERE "} {
					r, err := eng.Exec(ctx, dml+sh.where)
					if err != nil {
						t.Fatal(err)
					}
					if r.RowsAffected != int64(selected) {
						t.Errorf("%s affected %d rows, SELECT returned %d", r.Statement, r.RowsAffected, selected)
					}
				}
			})
		}
	}
}

package minequery

// Concurrent writers on disjoint id ranges with readers in flight
// (meaningful under -race). Each statement carries its SQL and its
// effect on a plain slice of structs; per-range effects commute across
// goroutines, so the final state is still exactly predicted. The serial
// write path — every layout, every statement kind, crashes included — is
// TestModelCheck's.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// oRow is the oracle's row representation — deliberately not a Tuple.
type oRow struct {
	id, a, b int64
	label    string
}

func oracleDump(rows []oRow) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprintf("%d|%d|%d|%s", r.id, r.a, r.b, r.label)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func engineDump(t *testing.T, eng *Engine, dop int) string {
	t.Helper()
	res, err := eng.Query(context.Background(), "SELECT id, a, b, label FROM t", WithDOP(dop))
	if err != nil {
		t.Fatalf("dump at DOP %d: %v", dop, err)
	}
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = fmt.Sprintf("%d|%d|%d|%s",
			row[0].AsInt(), row[1].AsInt(), row[2].AsInt(), row[3].AsString())
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// dmlStmt pairs a statement's SQL with its oracle effect. apply returns
// the new oracle state and the number of affected rows.
type dmlStmt struct {
	sql   string
	apply func([]oRow) ([]oRow, int64)
}

// genDMLStmt draws one random statement whose predicates are confined
// to ids in [lo, hi], each writer's disjoint slice. nextID is the
// caller's id allocator cursor.
func genDMLStmt(r *rand.Rand, nextID *int64, lo, hi int64) dmlStmt {
	labels := [...]string{"red", "green", "blue"}
	inRange := func(row oRow) bool { return row.id >= lo && row.id <= hi }
	switch r.Intn(8) {
	case 4: // UPDATE b by a
		x, y := int64(r.Intn(100)), int64(r.Intn(8))
		return dmlStmt{
			sql: fmt.Sprintf("UPDATE t SET b = %d WHERE a = %d AND id >= %d AND id <= %d", x, y, lo, hi),
			apply: func(o []oRow) ([]oRow, int64) {
				var n int64
				for i := range o {
					if inRange(o[i]) && o[i].a == y {
						o[i].b = x
						n++
					}
				}
				return o, n
			},
		}
	case 5: // UPDATE label by b threshold
		lbl, cut := labels[r.Intn(len(labels))], int64(40+r.Intn(60))
		return dmlStmt{
			sql: fmt.Sprintf("UPDATE t SET label = '%s' WHERE b >= %d AND id >= %d AND id <= %d", lbl, cut, lo, hi),
			apply: func(o []oRow) ([]oRow, int64) {
				var n int64
				for i := range o {
					if inRange(o[i]) && o[i].b >= cut {
						o[i].label = lbl
						n++
					}
				}
				return o, n
			},
		}
	case 6: // DELETE by b and a
		cut, y := int64(r.Intn(40)), int64(r.Intn(8))
		return dmlStmt{
			sql: fmt.Sprintf("DELETE FROM t WHERE b < %d AND a = %d AND id >= %d AND id <= %d", cut, y, lo, hi),
			apply: func(o []oRow) ([]oRow, int64) {
				kept := o[:0]
				var n int64
				for _, row := range o {
					if inRange(row) && row.b < cut && row.a == y {
						n++
						continue
					}
					kept = append(kept, row)
				}
				return kept, n
			},
		}
	case 7: // UPDATE one row
		span := *nextID - lo
		if hi-lo+1 < span {
			span = hi - lo + 1
		}
		if span <= 0 {
			span = 1
		}
		id, na := lo+r.Int63n(span), int64(r.Intn(8))
		return dmlStmt{
			sql: fmt.Sprintf("UPDATE t SET a = %d WHERE id = %d", na, id),
			apply: func(o []oRow) ([]oRow, int64) {
				var n int64
				for i := range o {
					if o[i].id == id {
						o[i].a = na
						n++
					}
				}
				return o, n
			},
		}
	default: // INSERT 1-4 rows
		n := 1 + r.Intn(4)
		rows := make([]oRow, n)
		var b strings.Builder
		b.WriteString("INSERT INTO t (id, a, b, label) VALUES ")
		for i := range rows {
			rows[i] = oRow{id: *nextID, a: int64(r.Intn(8)), b: int64(r.Intn(100)), label: labels[r.Intn(len(labels))]}
			*nextID++
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, '%s')", rows[i].id, rows[i].a, rows[i].b, rows[i].label)
		}
		return dmlStmt{
			sql: b.String(),
			apply: func(o []oRow) ([]oRow, int64) {
				return append(o, rows...), int64(n)
			},
		}
	}
}

func dmlTestSchema() *Schema {
	return MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindInt},
		Column{Name: "label", Kind: KindString},
	)
}

// TestDMLConcurrentWriters runs writers on disjoint id ranges with
// readers in flight. Each writer's statements predicate only on its own
// id slice, so per-range effects commute across goroutines and the
// final state is the serial composition of each writer's op list —
// which the oracle computes exactly. Run under -race this is also the
// memory-safety check for writeMu serialization against the read path.
func TestDMLConcurrentWriters(t *testing.T) {
	const writers, opsPerWriter, rangeSize = 4, 120, 1 << 20
	eng := New()
	if err := eng.CreateTable("t", dmlTestSchema()); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stmts := make([][]dmlStmt, writers)
	var writerWG, readerWG sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		w := w
		lo := int64(w * rangeSize)
		hi := lo + rangeSize - 1
		r := rand.New(rand.NewSource(int64(1000 + w)))
		nextID := lo
		ops := make([]dmlStmt, opsPerWriter)
		for i := range ops {
			ops[i] = genDMLStmt(r, &nextID, lo, hi)
		}
		stmts[w] = ops
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for _, st := range ops {
				if _, err := eng.Exec(ctx, st.sql); err != nil {
					errCh <- fmt.Errorf("writer %d %q: %w", w, st.sql, err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for rd := 0; rd < 2; rd++ {
		dop := 1 + 3*rd // DOP 1 and DOP 4 readers
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Query(ctx, "SELECT id, b FROM t WHERE a >= 4", WithDOP(dop)); err != nil {
					errCh <- fmt.Errorf("reader at DOP %d: %w", dop, err)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	var oracle []oRow
	for w := 0; w < writers; w++ {
		for _, st := range stmts[w] {
			oracle, _ = st.apply(oracle)
		}
	}
	want := oracleDump(oracle)
	for _, dop := range []int{1, 4} {
		if got := engineDump(t, eng, dop); got != want {
			t.Fatalf("concurrent final state diverged at DOP %d\nengine:\n%s\noracle:\n%s", dop, got, want)
		}
	}
}

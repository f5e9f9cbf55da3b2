package minequery

// EXPLAIN of a write statement renders the statement Exec runs: both go
// through one resolution, so EXPLAIN refuses exactly what Exec refuses,
// with the same error.

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"minequery/internal/sqlparse"
	"minequery/internal/wal"
)

// twoColumnTable is an engine with t(id INT, v INT) holding 4 rows.
func twoColumnTable(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindInt})); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if err := eng.Insert("t", Tuple{Int(int64(i)), Int(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// explainThenExec explains sql, then execs it on the same engine, and
// fails t unless both succeed or both fail with one error text. It
// returns what EXPLAIN returned.
func explainThenExec(t *testing.T, eng *Engine, sql string) (string, error) {
	t.Helper()
	text, xerr := eng.Explain(sql)
	_, eerr := eng.Exec(context.Background(), sql)
	if (xerr == nil) != (eerr == nil) || xerr != nil && xerr.Error() != eerr.Error() {
		t.Fatalf("%q: EXPLAIN and Exec disagree:\n  EXPLAIN: %v\n  Exec:    %v", sql, xerr, eerr)
	}
	return text, xerr
}

// explainAgreesCases are write statements with what EXPLAIN prints for
// them, or the error both EXPLAIN and Exec return. The fuzz target takes
// them as seeds and keeps the INSERT, UPDATE and DELETE statements.
var explainAgreesCases = []struct {
	sql, plan, err string
}{
	{sql: "INSERT INTO t VALUES (7, 8), (9, 10)", plan: "Insert(t, 2 rows)\n"},
	{sql: "insert into T (V) values (3)", plan: "Insert(t, 1 rows)\n"},
	{sql: "UPDATE t SET v = 5 WHERE id < 2", plan: "Update(t)\n  Filter(id < 2)\n    SeqScan(t)\n"},
	{sql: "UPDATE t SET v = 0, id = 1", plan: "Update(t)\n  SeqScan(t)\n"},
	{sql: "DELETE FROM t WHERE v = 1", plan: "Delete(t)\n  Filter(v = 1)\n    SeqScan(t)\n"},
	{sql: "DELETE FROM t", plan: "Delete(t)\n  SeqScan(t)\n"},
	{sql: "UPDATE t SET nope = 1 WHERE id < 5", err: `minequery: unsupported query: unknown column "nope" in UPDATE t`},
	{sql: "INSERT INTO t (nope) VALUES (1)", err: `minequery: unsupported query: unknown column "nope" in INSERT into t`},
	{sql: "INSERT INTO t VALUES (1)", err: "minequery: row 0: catalog: table t: row arity 1, schema arity 2"},
	{sql: "INSERT INTO t VALUES ('x', 2)", err: "minequery: row 0: catalog: table t column id: value kind TEXT, want INT"},
	{sql: "INSERT INTO t (id, id) VALUES (1, 2)", err: `minequery: unsupported query: column "id" named twice in INSERT into t`},
	{sql: "UPDATE t SET v = 1, v = 2 WHERE id = 1", err: `minequery: unsupported query: column "v" named twice in UPDATE t`},
	{sql: "UPDATE t SET v = 1, V = 2", err: `minequery: unsupported query: column "V" named twice in UPDATE t`},
	{sql: "DELETE FROM t WHERE nope = 1", err: `minequery: unsupported query: unknown column "nope" in DML predicate on t (predicates on the write path see data columns only)`},
	{sql: "DELETE FROM nope", err: `minequery: unknown table "nope"`},
	{sql: "INSERT INTO nope VALUES (1)", err: `minequery: unknown table "nope"`},
	{sql: "CREATE MODEL m ON t PREDICT v USING dtree AS SELECT id, v FROM t WHERE nope > 1",
		err: `minequery: unsupported query: unknown column "nope" in training view predicate on t (predicates on the write path see data columns only)`},
}

// TestExplainAgreesWithExec: on a fresh engine, EXPLAIN and Exec of each
// statement both succeed, or both fail with the same error.
func TestExplainAgreesWithExec(t *testing.T) {
	for _, c := range explainAgreesCases {
		t.Run(c.sql, func(t *testing.T) {
			text, err := explainThenExec(t, twoColumnTable(t), c.sql)
			switch {
			case c.err != "" && (err == nil || err.Error() != c.err):
				t.Errorf("error %v, want %s", err, c.err)
			case c.err == "" && (err != nil || text != c.plan):
				t.Errorf("EXPLAIN\n%s(error %v), want\n%s", text, err, c.plan)
			}
		})
	}
}

// TestOversizeRowRefusedBeforeLog: a row no heap page holds is refused
// before the log holds it, by EXPLAIN and Exec alike for an INSERT, and
// by Exec once it reads an UPDATE's victims. Nothing is applied, and the
// log replays to the live state.
func TestOversizeRowRefusedBeforeLog(t *testing.T) {
	eng := newCrashEngine(t)
	dev := wal.NewMemDevice()
	if _, err := eng.EnableWAL(dev); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	big := strings.Repeat("x", 9000)
	if _, err := explainThenExec(t, eng, "INSERT INTO t VALUES (1, 1, 1, 'a'), (2, 2, 2, '"+big+"')"); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("oversize INSERT: %v, want ErrUnsupportedQuery", err)
	}
	if _, err := eng.Exec(ctx, "INSERT INTO t VALUES (3, 3, 3, 'a')"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx, "UPDATE t SET label = '"+big+"' WHERE id = 3"); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("oversize UPDATE: %v, want ErrUnsupportedQuery", err)
	}
	live := crashState(t, eng)
	if want := "models:\n(3, 3, 3, \"a\")"; live != want {
		t.Fatalf("live state %s, want %s", live, want)
	}
	img, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	re := newCrashEngine(t)
	if _, err := re.EnableWAL(wal.NewMemDeviceFrom(img)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := crashState(t, re); got != live {
		t.Fatalf("replayed state %s, want %s", got, live)
	}
}

// sqlparseSeeds returns the statements of sqlparse's fuzz seed list,
// read from its source.
func sqlparseSeeds(tb testing.TB) []string {
	tb.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/sqlparse/fuzz_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "seedQueries" {
			return true
		}
		for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
			s, err := strconv.Unquote(el.(*ast.BasicLit).Value)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, s)
		}
		return false
	})
	if len(out) == 0 {
		tb.Fatal("no seedQueries in internal/sqlparse/fuzz_test.go")
	}
	return out
}

// FuzzExplainAgreesWithExec: any text that parses as an INSERT, UPDATE
// or DELETE explains and execs alike against a fresh, empty t(id INT,
// a INT, b INT, label TEXT). An UPDATE or DELETE has no victims there,
// so no error depends on data.
func FuzzExplainAgreesWithExec(f *testing.F) {
	for _, c := range explainAgreesCases {
		f.Add(c.sql)
	}
	for _, s := range sqlparseSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := sqlparse.ParseStatement(sql)
		if err != nil || st.Kind != sqlparse.StmtInsert && st.Kind != sqlparse.StmtUpdate && st.Kind != sqlparse.StmtDelete {
			return
		}
		explainThenExec(t, newCrashEngine(t), sql)
	})
}

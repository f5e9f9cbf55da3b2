package sqlparse

import (
	"testing"

	"minequery/internal/expr"
	"minequery/internal/value"
)

func TestNormalizeCollapsesEquivalentSpellings(t *testing.T) {
	groups := [][]string{
		{
			"SELECT id FROM t WHERE x = 1.5",
			"  select  ID   from T where X=1.50 ",
			"Select Id From T Where x = 15e-1",
		},
		{
			// A float zero of either sign is one FLOAT zero.
			"SELECT id FROM t WHERE x = 0.0",
			"SELECT id FROM t WHERE x = -0.",
			"SELECT id FROM t WHERE x = 0.0e5",
		},
		{
			"SELECT * FROM c WHERE name = 'o''brien'",
			"select * from C WHERE name='o''brien'",
		},
		{
			"SELECT a FROM t PREDICTION JOIN m AS p ON p.x = t.x WHERE p.cls IN ('a', 'b')",
			"select a from t prediction join m as p on p.x=t.x where p.cls in('a','b')",
		},
	}
	for _, g := range groups {
		want, err := Normalize(g[0])
		if err != nil {
			t.Fatalf("%q: %v", g[0], err)
		}
		for _, sql := range g[1:] {
			got, err := Normalize(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			if got != want {
				t.Errorf("Normalize(%q) = %q, want %q (from %q)", sql, got, want, g[0])
			}
		}
	}
}

func TestNormalizeKeepsDistinctQueriesApart(t *testing.T) {
	pairs := [][2]string{
		{"SELECT a FROM t", "SELECT b FROM t"},
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"},
		{"SELECT a FROM t WHERE s = 'A'", "SELECT a FROM t WHERE s = 'a'"}, // string literals are case-sensitive
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = '1'"},   // number vs string
		{"SELECT a FROM t WHERE x = 0", "SELECT a FROM t WHERE x = 0.0"},   // INT vs FLOAT
	}
	for _, p := range pairs {
		a, err := Normalize(p[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := Normalize(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("Normalize collapsed distinct queries %q and %q to %q", p[0], p[1], a)
		}
	}
}

var raceEnabled bool

// TestAllocNormalizeCopiesOnce: Normalize writes the tokens as the lexer
// finds them and copies its text out once, at its length.
func TestAllocNormalizeCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	src := "SELECT id, m.segment FROM Customers PREDICTION JOIN segmodel AS m ON m.age=customers.age " +
		"WHERE m.segment IN ('budget', 'vip') AND age >= 30.0 AND income < 1e2 LIMIT 10"
	want := "select id , m . segment from customers prediction join segmodel as m on m . age = customers . age " +
		"where m . segment in ( 'budget' , 'vip' ) and age >= 30.0 and income < 100.0 limit 10"
	if got, err := Normalize(src); err != nil || got != want {
		t.Fatalf("Normalize = %q, %v; want %q", got, err, want)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Normalize(src) }); n != 1 {
		t.Errorf("Normalize: %v allocations, want 1 (the text it returns)", n)
	}
}

func TestNormalizeRejectsLexErrors(t *testing.T) {
	if _, err := Normalize("SELECT 'unterminated"); err == nil {
		t.Fatal("want error for unterminated string")
	}
}

// FuzzNormalizeKeepsMeaning: a text and its normalized form parse alike
// — both fail, or both succeed with the same literals, kind for kind and
// value for value — so texts that share a prepared statement ask the
// same question.
func FuzzNormalizeKeepsMeaning(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Add("SELECT id FROM customers LIMIT 2.0")
	f.Add("SELECT * FROM t WHERE x = 1e2")
	f.Add("SELECT * FROM t WHERE x IN (2., -0.0, 99999999999999999999, 1e6, .5) LIMIT 007")
	f.Add("INSERT INTO t VALUES (2.0, 1E2, -0., 7)")
	f.Fuzz(func(t *testing.T, src string) {
		norm, err := Normalize(src)
		if err != nil {
			if _, perr := ParseStatement(src); perr == nil {
				t.Fatalf("Normalize(%q) failed (%v), but the text parses", src, err)
			}
			return
		}
		q, qerr := Parse(src)
		qn, qnerr := Parse(norm)
		if (qerr == nil) != (qnerr == nil) {
			t.Fatalf("Parse(%q): %v, but Parse(%q): %v", src, qerr, norm, qnerr)
		}
		if qerr == nil {
			sameLiterals(t, src, norm, selectLiterals(q), selectLiterals(qn))
		}
		st, sterr := ParseStatement(src)
		stn, stnerr := ParseStatement(norm)
		if (sterr == nil) != (stnerr == nil) {
			t.Fatalf("ParseStatement(%q): %v, but ParseStatement(%q): %v", src, sterr, norm, stnerr)
		}
		if sterr == nil {
			sameLiterals(t, src, norm, stmtLiterals(st), stmtLiterals(stn))
		}
	})
}

func sameLiterals(t *testing.T, src, norm string, a, b []value.Value) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%q has literals %v, its normal form %q has %v", src, a, norm, b)
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !value.Equal(a[i], b[i]) {
			t.Fatalf("%q has literal %v (%s), its normal form %q has %v (%s)", src, a[i], a[i].Kind(), norm, b[i], b[i].Kind())
		}
	}
}

func selectLiterals(q *Query) []value.Value {
	return append(exprLiterals(nil, q.Where), value.Int(q.Limit))
}

func stmtLiterals(st *Statement) []value.Value {
	var out []value.Value
	switch st.Kind {
	case StmtSelect:
		out = selectLiterals(st.Select)
	case StmtInsert:
		for _, row := range st.Insert.Rows {
			out = append(out, row...)
		}
	case StmtUpdate:
		for _, a := range st.Update.Sets {
			out = append(out, a.Val)
		}
		out = exprLiterals(out, st.Update.Where)
	case StmtDelete:
		out = exprLiterals(out, st.Delete.Where)
	case StmtCreateModel:
		out = exprLiterals(out, st.CreateModel.Where)
	}
	return out
}

func exprLiterals(out []value.Value, e expr.Expr) []value.Value {
	switch x := e.(type) {
	case expr.Cmp:
		out = append(out, x.Val)
	case expr.In:
		out = append(out, x.Vals...)
	case expr.Not:
		out = exprLiterals(out, x.Kid)
	case expr.And:
		for _, k := range x.Kids {
			out = exprLiterals(out, k)
		}
	case expr.Or:
		for _, k := range x.Kids {
			out = exprLiterals(out, k)
		}
	}
	return out
}

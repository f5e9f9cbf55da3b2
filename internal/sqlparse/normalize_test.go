package sqlparse

import "testing"

func TestNormalizeCollapsesEquivalentSpellings(t *testing.T) {
	groups := [][]string{
		{
			"SELECT id FROM t WHERE x = 1.5",
			"  select  ID   from T where X=1.50 ",
			"Select Id From T Where x = 15e-1",
		},
		{
			// A float zero of either sign is the integer zero it equals.
			"SELECT id FROM t WHERE x = 0",
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

func TestNormalizeRejectsLexErrors(t *testing.T) {
	if _, err := Normalize("SELECT 'unterminated"); err == nil {
		t.Fatal("want error for unterminated string")
	}
}

package sqlparse

import (
	"errors"
	"strings"
	"testing"

	"minequery/internal/qerr"
)

// seedQueries covers the dialect: plain selects, the paper's four mining
// predicate shapes (=, <>, IN, PREDICTION JOIN), quoting, numerics, and
// a few malformed inputs so the fuzzer starts near error paths too.
var seedQueries = []string{
	"SELECT * FROM customers",
	"SELECT id, name FROM t LIMIT 10",
	"SELECT * FROM t WHERE age > 30 AND (city = 'NY' OR city = 'SF') AND active = TRUE",
	"SELECT * FROM t WHERE cat IN ('a', 'b', 'c')",
	"SELECT * FROM t WHERE a = -5 AND b = 2.5 AND c = 1e3 AND d = NULL",
	"SELECT * FROM t WHERE name = 'O''Brien'",
	"SELECT * FROM t WHERE NOT (a <= 1) AND b <> 2 AND c != 3 AND d >= 4 AND e < 5",
	"SELECT * FROM t PREDICTION JOIN m ON t.age = m.age WHERE m.cls = 'x'",
	"SELECT * FROM sales PREDICTION JOIN risk ON sales.amt = risk.amt WHERE risk.label <> 'low' LIMIT 5",
	"SELECT * FROM t WHERE m.cls IN ('a','b') AND num >= 10",
	"select lower, keywords from t where mixed_Case <> 0",
	// Fallback-exercising shapes: selective ranges, OR unions, and
	// mining predicates that pick index paths — the plans the engine
	// re-runs on the baseline scan when a seek fails transiently.
	"SELECT * FROM t WHERE num >= 97",
	"SELECT * FROM t WHERE num <= 1 OR num >= 98",
	"SELECT * FROM t WHERE cat IN ('a','b') OR num >= 95 LIMIT 7",
	"SELECT * FROM t PREDICTION JOIN dt AS m ON m.num = t.num WHERE m.cls = 'hot' AND t.num >= 90",
	"SELECT id FROM t PREDICTION JOIN nb AS p ON p.cat = t.cat WHERE p.grp <> 'b' AND (t.num >= 80 OR t.num <= 5)",
	// Partition-pruning shapes: boundary-aligned ranges, OR-of-regions,
	// and IN lists on a partition column — the predicates the pruner
	// intersects with partition bound intervals. (The dialect has no
	// DDL; CREATE-style text lands on the error path deliberately.)
	"SELECT * FROM pt WHERE num >= 25 AND num < 50",
	"SELECT * FROM pt WHERE (num >= 0 AND num < 10) OR (num >= 80 AND num < 90)",
	"SELECT * FROM pt WHERE num IN (5, 5, 90) OR num = NULL",
	"SELECT * FROM pt PREDICTION JOIN km AS c ON c.num = pt.num WHERE c.cluster = 2 AND pt.num < 24.5",
	"CREATE TABLE pt (num INT) PARTITION BY RANGE (num) VALUES (25, 50, 75)",
	// Columnar-path shapes: deeply nested OR/AND trees with duplicate
	// terms, all-true/all-false branches, and wide disjunctions — the
	// predicate forms the vectorized scan-filter reorders and
	// short-circuits, so the parser must keep their nesting exact.
	"SELECT * FROM t WHERE ((a = 1 OR a = 1) OR (b = 2 AND b = 2)) OR (c = 3 AND (d = 4 OR d = 5))",
	"SELECT * FROM t WHERE (a = 1 AND NOT (a = 1)) OR (num >= 0 OR num < 0)",
	"SELECT id FROM t WHERE a = 1 OR b = 2 OR c = 3 OR d = 4 OR e = 5 OR f = 6 OR g = 7 OR h = 8",
	"SELECT * FROM t WHERE NOT (NOT (NOT (a IN (1, 1, 2))))",
	"SELECT * FROM t WHERE ((((a = 1)))) AND (b IN ('x','x') OR (c <> NULL AND d = TRUE))",
	// Aggregate / GROUP BY shapes: grouped and ungrouped aggregates,
	// aggregates over predicted columns, COUNT(*) vs COUNT(col), and the
	// malformed variants (bad GROUP, non-count stars, unclosed calls).
	"SELECT COUNT(*) FROM t",
	"SELECT cat, COUNT(*), SUM(num) FROM t GROUP BY cat",
	"SELECT count(num), min(num), max(num), avg(num) FROM t WHERE num >= 10",
	"SELECT m.cls, COUNT(*) FROM t PREDICTION JOIN dt AS m ON m.num = t.num GROUP BY m.cls",
	"SELECT cat, num, COUNT(*) FROM t GROUP BY cat, num LIMIT 3",
	"SELECT cat FROM t GROUP BY cat",
	"SELECT AVG(num) FROM t PREDICTION JOIN nb AS p ON p.cat = t.cat WHERE p.grp = 'a' GROUP BY cat",
	"SELECT count ( * ) , sum ( num ) FROM t GROUP BY cat , num",
	"SELECT SUM(*) FROM t",
	"SELECT COUNT( FROM t",
	"SELECT cat, COUNT(*) FROM t GROUP cat",
	"SELECT COUNT(*) FROM t GROUP BY",
	"",
	"SELECT",
	"SELECT * FROM",
	"SELECT * FROM t WHERE",
	"SELECT * FROM t WHERE a = ",
	"SELECT * FROM t WHERE a = 'unterminated",
	"SELECT * FROM t LIMIT notanumber",
	"SELECT * FROM t WHERE a = 9999999999999999999999999",
	"SELECT * FROM t WHERE a = 1e309",
	"SELECT * FROM t WHERE a IN ()",
	"SELECT * FROM t PREDICTION JOIN",
	"\x00\xff SELECT * FROM t",
	"SELECT * FROM t -- trailing garbage )))",
	// Write-path statements: every DML/CREATE MODEL production the
	// statement grammar accepts, plus each of its typed rejection
	// paths (parse errors vs recognized-but-unsupported verbs), so the
	// fuzzer starts on both sides of every branch in ParseStatement.
	"INSERT INTO t VALUES (1, 2, 3, 'x')",
	"INSERT INTO t (id, a, b, label) VALUES (1, 2, 3, 'x'), (2, -3, 4.5, NULL)",
	"insert into T (ID) values (1), (2), (3)",
	"INSERT INTO t (a) VALUES (TRUE), (FALSE), (1e3), ('O''Brien')",
	"UPDATE t SET b = 7",
	"UPDATE t SET b = 7, label = 'red' WHERE a = 3 AND id >= 10",
	"UPDATE t SET label = NULL WHERE b IN (1, 2) OR NOT (a <> 0)",
	"DELETE FROM t",
	"DELETE FROM t WHERE b < 30 AND a = 5",
	"CREATE MODEL m ON t PREDICT label USING dtree",
	"CREATE MODEL m ON t PREDICT label USING nbayes AS SELECT a, b, label FROM t",
	"CREATE MODEL m ON t PREDICT label USING rules AS SELECT * FROM t WHERE b >= 10",
	"create model K on t predict cluster using kmeans",
	"CREATE MODEL g ON t PREDICT component USING gmm AS SELECT a, b FROM t",
	// Malformed DML: parse-error paths.
	"INSERT INTO t",
	"INSERT INTO t VALUES",
	"INSERT INTO t VALUES (1, 2",
	"INSERT INTO t (a b) VALUES (1)",
	"INSERT INTO t (a) VALUES (1), (1, 2)",
	"INSERT INTO t (a) SELECT a FROM s",
	"UPDATE t",
	"UPDATE t SET",
	"UPDATE t SET a",
	"UPDATE t SET a = WHERE b = 1",
	"UPDATE t SET a = b",
	"DELETE t WHERE a = 1",
	"DELETE FROM",
	"CREATE MODEL m",
	"CREATE MODEL m ON t",
	"CREATE MODEL m ON t PREDICT label",
	"CREATE MODEL m ON t PREDICT label USING",
	"CREATE MODEL m ON t PREDICT label USING dtree AS",
	"CREATE MODEL m ON t PREDICT label USING dtree AS SELECT FROM t",
	"CREATE MODEL m ON t PREDICT label USING dtree AS SELECT a FROM other",
	// Recognized-but-unsupported: typed ErrUnsupportedQuery paths.
	"CREATE MODEL m ON t PREDICT label USING svm",
	"CREATE TABLE t (a INT)",
	"CREATE INDEX ix ON t (a)",
	"DROP TABLE t",
	"ALTER TABLE t ADD COLUMN x INT",
	"TRUNCATE t",
	"MERGE INTO t USING s ON t.id = s.id",
	"GRANT ALL ON t TO nobody",
}

// FuzzLexer checks that tokenization never panics and that every
// returned token's text is a substring the input could have produced
// (no invented text, no out-of-range slicing).
func FuzzLexer(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err != nil {
			return // rejecting input is fine; panicking is not
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("token stream must end in EOF: %v", toks)
		}
		for _, tok := range toks {
			if tok.kind == tokString || tok.kind == tokEOF {
				continue // string text is unescaped, EOF is empty
			}
			if tok.text != "" && !strings.Contains(strings.ToLower(src), strings.ToLower(tok.text)) {
				t.Fatalf("token %q not found in input %q", tok.text, src)
			}
		}
	})
}

// FuzzStatement checks that ParseStatement never panics and keeps its
// contract on arbitrary input: exactly one of (statement, error) is
// returned, the union field matching Kind is populated, and every error
// is typed — it wraps qerr.ErrParse or qerr.ErrUnsupportedQuery, never
// an anonymous failure.
func FuzzStatement(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := ParseStatement(src)
		if err != nil {
			if st != nil {
				t.Fatal("ParseStatement must not return both a statement and an error")
			}
			if !errors.Is(err, qerr.ErrParse) && !errors.Is(err, qerr.ErrUnsupportedQuery) {
				t.Fatalf("untyped statement error for %q: %v", src, err)
			}
			return
		}
		if st == nil {
			t.Fatal("ParseStatement returned neither statement nor error")
		}
		switch st.Kind {
		case StmtSelect:
			if st.Select == nil {
				t.Fatal("StmtSelect with nil Select")
			}
		case StmtInsert:
			if st.Insert == nil || st.Insert.Table == "" || len(st.Insert.Rows) == 0 {
				t.Fatalf("malformed InsertStmt accepted: %q", src)
			}
			if st.Insert.Columns != nil {
				for _, row := range st.Insert.Rows {
					if len(row) != len(st.Insert.Columns) {
						t.Fatalf("insert row arity %d != column list %d: %q",
							len(row), len(st.Insert.Columns), src)
					}
				}
			}
		case StmtUpdate:
			if st.Update == nil || st.Update.Table == "" || len(st.Update.Sets) == 0 {
				t.Fatalf("malformed UpdateStmt accepted: %q", src)
			}
		case StmtDelete:
			if st.Delete == nil || st.Delete.Table == "" {
				t.Fatalf("malformed DeleteStmt accepted: %q", src)
			}
		case StmtCreateModel:
			cm := st.CreateModel
			if cm == nil || cm.Name == "" || cm.Table == "" || cm.Predict == "" {
				t.Fatalf("malformed CreateModelStmt accepted: %q", src)
			}
			if _, ok := ModelFamilies[cm.Family]; !ok {
				t.Fatalf("unknown family %q accepted: %q", cm.Family, src)
			}
			// Without AS SELECT the view defaults to "every column but
			// the predicted one": Star set, no explicit features/filter.
			if !cm.HasView && (cm.Feats != nil || !cm.Star || cm.Where != nil) {
				t.Fatalf("bad default view for CREATE MODEL without AS SELECT: %+v (%q)", cm, src)
			}
			if cm.Star && cm.Feats != nil {
				t.Fatalf("Star and explicit features are mutually exclusive: %q", src)
			}
		default:
			t.Fatalf("unknown statement kind %d for %q", st.Kind, src)
		}
	})
}

// TestStatementGrammarCoverage pins the typed outcome of one statement
// per grammar production and per rejection path: accepted productions
// parse to the expected kind; malformed text fails with ErrParse;
// recognized-but-unimplemented statements fail with ErrUnsupportedQuery
// (clients tell "wrong dialect" from "gibberish" by the type alone).
func TestStatementGrammarCoverage(t *testing.T) {
	accept := map[string]StmtKind{
		"SELECT id FROM t WHERE a = 1":                                           StmtSelect,
		"INSERT INTO t VALUES (1, 'x')":                                          StmtInsert,
		"INSERT INTO t (a, b) VALUES (1, 2), (NULL, TRUE)":                       StmtInsert,
		"UPDATE t SET a = 1":                                                     StmtUpdate,
		"UPDATE t SET a = 1, b = 'x' WHERE c IN (1, 2) AND d >= 0":               StmtUpdate,
		"DELETE FROM t":                                                          StmtDelete,
		"DELETE FROM t WHERE NOT (a = 1)":                                        StmtDelete,
		"CREATE MODEL m ON t PREDICT p USING dtree":                              StmtCreateModel,
		"CREATE MODEL m ON t PREDICT p USING gmm AS SELECT a, b FROM t":          StmtCreateModel,
		"CREATE MODEL m ON t PREDICT p USING rules AS SELECT * FROM t WHERE a=1": StmtCreateModel,
	}
	for sql, kind := range accept {
		st, err := ParseStatement(sql)
		if err != nil {
			t.Errorf("%q: unexpected error %v", sql, err)
			continue
		}
		if st.Kind != kind {
			t.Errorf("%q: kind %d, want %d", sql, st.Kind, kind)
		}
	}
	parseErrs := []string{
		"INSERT INTO t",
		"INSERT INTO t (a) VALUES (1, 2)",
		"INSERT INTO t (a) SELECT a FROM s",
		"UPDATE t SET",
		"UPDATE t SET a = b",
		"DELETE t",
		"CREATE MODEL m ON t PREDICT p",
		"CREATE MODEL m ON t PREDICT p USING dtree AS SELECT a FROM other",
		"wibble wobble",
	}
	for _, sql := range parseErrs {
		if _, err := ParseStatement(sql); !errors.Is(err, qerr.ErrParse) {
			t.Errorf("%q: want ErrParse, got %v", sql, err)
		}
	}
	unsupported := []string{
		"CREATE MODEL m ON t PREDICT p USING svm",
		"CREATE TABLE t (a INT)",
		"DROP TABLE t",
		"ALTER TABLE t ADD COLUMN x INT",
		"TRUNCATE t",
		"GRANT ALL ON t TO nobody",
	}
	for _, sql := range unsupported {
		if _, err := ParseStatement(sql); !errors.Is(err, qerr.ErrUnsupportedQuery) {
			t.Errorf("%q: want ErrUnsupportedQuery, got %v", sql, err)
		}
	}
}

// FuzzParser checks that Parse never panics: any input either yields a
// query with the basic invariants intact or a proper error.
func FuzzParser(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			if q != nil {
				t.Fatal("Parse must not return both a query and an error")
			}
			return
		}
		if q == nil {
			t.Fatal("Parse returned neither query nor error")
		}
		if q.Table == "" {
			t.Fatalf("parsed query has no table: %q", src)
		}
		if q.Limit < -1 {
			t.Fatalf("parsed limit %d out of range", q.Limit)
		}
	})
}

// FuzzNormalizeIdempotent: normalized text normalizes to itself, which
// is what lets a node take a coordinator's normalized text as its own
// cache key without normalizing it again.
func FuzzNormalizeIdempotent(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Add("-0.")
	f.Fuzz(func(t *testing.T, src string) {
		once, err := Normalize(src)
		if err != nil {
			return
		}
		if twice, err := Normalize(once); err != nil || twice != once {
			t.Fatalf("Normalize(%q) = %q, normalized again %q (%v)", src, once, twice, err)
		}
	})
}

package sqlparse

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// lex lexes all of src, as the parser would pull its tokens, ending in
// EOF; it returns the first lex error instead if there is one.
func lex(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		tk := l.next()
		if l.err != nil {
			return nil, l.err
		}
		toks = append(toks, tk)
		if tk.kind == tokEOF {
			return toks, nil
		}
	}
}

// TestLexPresizesTokens: the lexer hands out tokens without a slice to
// hold them, so lexing a long INSERT allocates nothing, and a long
// literal or identifier is a piece of the text, not a copy.
func TestLexPresizesTokens(t *testing.T) {
	var b strings.Builder
	b.WriteString("INSERT INTO t (id, x, n, lbl, ok) VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d.5, -%d, NULL, TRUE)", i, i, i)
	}
	insert := b.String()
	lexAll := func(src string) (n int) {
		l := lexer{src: src}
		for l.next().kind != tokEOF {
			n++
		}
		if l.err != nil {
			t.Fatal(l.err)
		}
		return n
	}
	if n := lexAll(insert); n != 2414 {
		t.Fatalf("lexing the 200-row INSERT found %d tokens, want 2414", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { lexAll(insert) }); allocs != 0 {
		t.Errorf("lexing a 200-row INSERT: %v allocations, want 0", allocs)
	}

	long := strings.Repeat("x", 1<<20)
	for name, src := range map[string]string{
		"literal":    "SELECT * FROM t WHERE s = '" + long + "'",
		"identifier": "SELECT " + long + " FROM t",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lexAll(src)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 3<<20 {
			t.Errorf("lexing one 1 MiB %s allocated %d bytes, want under 3 MiB", name, got)
		}
	}
}

// TestCountTokens pins the token stream (kind, text and offset of each
// token) of the statements the engine is sent and of quoted text.
func TestCountTokens(t *testing.T) {
	code := map[tokenKind]string{tokEOF: "E", tokIdent: "I", tokNumber: "N", tokString: "S", tokSymbol: "Y"}
	for _, c := range []struct{ src, want string }{
		{"", `E""@0`},
		{"SELECT * FROM t", `I"SELECT"@0 Y"*"@7 I"FROM"@9 I"t"@14 E""@15`},
		{"SELECT a,b FROM t WHERE x>=1 AND y<>'it''s' OR z IN ('a','b')", `I"SELECT"@0 I"a"@7 Y","@8 I"b"@9 I"FROM"@11 I"t"@16 I"WHERE"@18 ` +
			`I"x"@24 Y">="@25 N"1"@27 I"AND"@29 I"y"@33 Y"<>"@34 S"it's"@36 ` +
			`I"OR"@44 I"z"@47 I"IN"@49 Y"("@52 S"a"@53 Y","@56 S"b"@57 ` +
			`Y")"@60 E""@61`},
		{"INSERT INTO t (a, b) VALUES (1, 'x'), (-2, ''), (3.5e-1, NULL)", `I"INSERT"@0 I"INTO"@7 I"t"@12 Y"("@14 I"a"@15 Y","@16 I"b"@18 ` +
			`Y")"@19 I"VALUES"@21 Y"("@28 N"1"@29 Y","@30 S"x"@32 Y")"@35 ` +
			`Y","@36 Y"("@38 N"-2"@39 Y","@41 S""@43 Y")"@45 Y","@46 ` +
			`Y"("@48 N"3.5e-1"@49 Y","@55 I"NULL"@57 Y")"@61 E""@62`},
		{"UPDATE t SET a = 7, b = 'red' WHERE id >= 10", `I"UPDATE"@0 I"t"@7 I"SET"@9 I"a"@13 Y"="@15 N"7"@17 Y","@18 ` +
			`I"b"@20 Y"="@22 S"red"@24 I"WHERE"@30 I"id"@36 Y">="@39 N"10"@42 ` +
			`E""@44`},
		{"SELECT id FROM t PREDICTION JOIN m ON m.a = t.a WHERE m.cls = 'vip'", `I"SELECT"@0 I"id"@7 I"FROM"@10 I"t"@15 I"PREDICTION"@17 I"JOIN"@28 I"m"@33 ` +
			`I"ON"@35 I"m"@38 Y"."@39 I"a"@40 Y"="@42 I"t"@44 Y"."@45 ` +
			`I"a"@46 I"WHERE"@48 I"m"@54 Y"."@55 I"cls"@56 Y"="@60 S"vip"@62 ` +
			`E""@67`},
		{"select\n\tcount ( * )\nfrom t  group by cat", `I"select"@0 I"count"@8 Y"("@14 Y"*"@16 Y")"@18 I"from"@20 I"t"@25 ` +
			`I"group"@28 I"by"@34 I"cat"@37 E""@40`},
		{"SELECT * FROM t WHERE s = 'a, (b), c ''d'' e'", `I"SELECT"@0 Y"*"@7 I"FROM"@9 I"t"@14 I"WHERE"@16 I"s"@22 Y"="@24 ` +
			`S"a, (b), c 'd' e"@26 E""@45`},
	} {
		toks, err := lex(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got := make([]string, len(toks))
		for i, tk := range toks {
			got[i] = fmt.Sprintf("%s%q@%d", code[tk.kind], tk.text, tk.pos)
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("lex(%q) =\n\t%s\nwant\n\t%s", c.src, s, c.want)
		}
	}
}

// TestLexErrorOutranksParseError: the parser reads tokens as the lexer
// finds them, but a lex error anywhere in the text still wins over a
// parse error the parser meets before it, with the same text and offset
// through Parse and ParseStatement.
func TestLexErrorOutranksParseError(t *testing.T) {
	for _, c := range []struct{ src, parse, stmt string }{
		{"SELECT FROM t WHERE x = 'open", "parse error: sqlparse: unterminated string literal at offset 24", "parse error: sqlparse: unterminated string literal at offset 24"},
		{"INSERT INTO t VALUES (1,) @", "parse error: sqlparse: unexpected character '@' at offset 26", "parse error: sqlparse: unexpected character '@' at offset 26"},
		{"DELETE t WHERE x = 1 #", "parse error: sqlparse: unexpected character '#' at offset 21", "parse error: sqlparse: unexpected character '#' at offset 21"},
		{"CREATE MODEL m ON t PREDICT label USING svm 'open", "parse error: sqlparse: unterminated string literal at offset 44", "parse error: sqlparse: unterminated string literal at offset 44"},
		{"CREATE MODEL m ON t PREDICT label USING svm", "parse error: sqlparse: expected SELECT, found \"CREATE\" (at offset 0)", "unsupported query: unknown model family \"svm\" (have dtree, nbayes, rules, kmeans, gmm)"},
		{"SELECT FROM t", "parse error: sqlparse: expected FROM, found \"t\" (at offset 12)", "parse error: sqlparse: expected FROM, found \"t\" (at offset 12)"},
		{"SELECT * FROM t WHERE x = 'it''s", "parse error: sqlparse: unterminated string literal at offset 26", "parse error: sqlparse: unterminated string literal at offset 26"},
		{"SELECT * FROM t ; DROP", "parse error: sqlparse: unexpected character ';' at offset 16", "parse error: sqlparse: unexpected character ';' at offset 16"},
		{"DROP TABLE t 'open", "parse error: sqlparse: unterminated string literal at offset 13", "parse error: sqlparse: unterminated string literal at offset 13"},
		{"'open", "parse error: sqlparse: unterminated string literal at offset 0", "parse error: sqlparse: unterminated string literal at offset 0"},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.parse {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.parse)
		}
		if _, err := ParseStatement(c.src); err == nil || err.Error() != c.stmt {
			t.Errorf("ParseStatement(%q) = %v, want %q", c.src, err, c.stmt)
		}
	}
}

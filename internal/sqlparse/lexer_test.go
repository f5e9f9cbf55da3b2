package sqlparse

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestLexPresizesTokens: the token slice is sized once from the text, so
// a long INSERT does not grow it by doubling, and the estimate does not
// reserve a token per byte of one long literal or identifier.
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
	toks, err := lex(insert)
	if err != nil {
		t.Fatal(err)
	}
	if cap(toks) > 2*len(toks) {
		t.Errorf("%d tokens in a slice of capacity %d", len(toks), cap(toks))
	}
	if allocs := testing.AllocsPerRun(20, func() { lex(insert) }); allocs != 1 {
		t.Errorf("lexing a 200-row INSERT: %v allocations, want 1 (the token slice)", allocs)
	}

	long := strings.Repeat("x", 1<<20)
	for name, src := range map[string]string{
		"literal":    "SELECT * FROM t WHERE s = '" + long + "'",
		"identifier": "SELECT " + long + " FROM t",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := lex(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 3<<20 {
			t.Errorf("lexing one 1 MiB %s allocated %d bytes, want under 3 MiB", name, got)
		}
	}
}

// TestCountTokens pins the estimate on the shapes it must not undercount
// (the statements the engine is sent) and on quoted text, which it skips.
func TestCountTokens(t *testing.T) {
	for _, src := range []string{
		"",
		"SELECT * FROM t",
		"SELECT a,b FROM t WHERE x>=1 AND y<>'it''s' OR z IN ('a','b')",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (-2, ''), (3.5e-1, NULL)",
		"UPDATE t SET a = 7, b = 'red' WHERE id >= 10",
		"SELECT id FROM t PREDICTION JOIN m ON m.a = t.a WHERE m.cls = 'vip'",
		"select\n\tcount ( * )\nfrom t  group by cat",
	} {
		toks, err := lex(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := countTokens(src); n < len(toks) {
			t.Errorf("countTokens(%q) = %d, lex finds %d", src, n, len(toks))
		}
	}
	quoted := "SELECT * FROM t WHERE s = 'a, (b), c ''d'' e'"
	if toks, _ := lex(quoted); countTokens(quoted) != len(toks) {
		t.Errorf("countTokens(%q) = %d, lex finds %d: quoted text counted", quoted, countTokens(quoted), len(toks))
	}
}

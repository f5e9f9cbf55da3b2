package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"minequery/internal/qerr"
)

// Normalize renders src as a canonical token stream, for use as a
// prepared-statement cache key: queries that differ only in whitespace,
// keyword/identifier case, string-quoting style, or numeric spelling
// map to the same string. It performs no grammar validation beyond
// lexing — the parser decides validity; Normalize only has to be a
// function of the token sequence.
//
//	" select  ID from T where X=1.50 " and "SELECT id FROM t WHERE x = 1.5"
//
// both normalize to "select id from t where x = 1.5".
func Normalize(src string) (string, error) {
	toks, err := lex(src)
	if err != nil {
		return "", fmt.Errorf("%w: %v", qerr.ErrParse, err)
	}
	var b strings.Builder
	for i, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		switch tk.kind {
		case tokIdent:
			// Keywords and identifiers alike: the dialect is
			// case-insensitive throughout.
			b.WriteString(strings.ToLower(tk.text))
		case tokNumber:
			b.WriteString(canonicalNumber(tk.text))
		case tokString:
			// tk.text is the decoded literal; re-quote with '' escaping.
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(tk.text, "'", "''"))
			b.WriteByte('\'')
		default:
			b.WriteString(tk.text)
		}
	}
	return b.String(), nil
}

// canonicalNumber collapses equivalent numeric spellings ("1.50",
// "1.5", "15e-1") to one form. Integers keep base-10 form; everything
// else goes through float formatting, which gives a float zero of
// either sign the integer's "0", so that Normalize is idempotent. A
// token the lexer accepted but strconv cannot parse is left verbatim —
// the parser will reject it later with a proper error.
func canonicalNumber(text string) string {
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		return strconv.FormatInt(n, 10)
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return strconv.FormatFloat(f+0, 'g', -1, 64) // f+0: -0 renders as "0", as 1.0 renders as "1"
	}
	return text
}

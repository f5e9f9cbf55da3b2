package sqlparse

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"minequery/internal/qerr"
)

// Normalize renders src as a canonical token stream, for use as a
// prepared-statement cache key: queries that differ only in whitespace,
// keyword/identifier case, string-quoting style, or the spelling of a
// number of one kind map to the same string; a FLOAT and the INT it
// equals stay apart, since the parser reads them differently. It
// performs no grammar validation beyond lexing — the parser decides
// validity; Normalize only has to be a function of the token sequence.
//
//	" select  ID from T where X=1.50 " and "SELECT id FROM t WHERE x = 1.5"
//
// both normalize to "select id from t where x = 1.5".
func Normalize(src string) (string, error) {
	// The text is built on the stack and copied out once, at its length.
	var buf [512]byte
	out := buf[:0]
	l := lexer{src: src}
	for tk := l.next(); tk.kind != tokEOF; tk = l.next() {
		if len(out) > 0 {
			out = append(out, ' ')
		}
		switch tk.kind {
		case tokIdent:
			// Keywords and identifiers alike: the dialect is
			// case-insensitive throughout.
			out = appendLower(out, tk.text)
		case tokNumber:
			out = appendCanonicalNumber(out, tk.text)
		case tokString:
			// tk.text is the decoded literal; re-quote with '' escaping.
			out = append(out, '\'')
			for i := 0; i < len(tk.text); i++ {
				if tk.text[i] == '\'' {
					out = append(out, '\'')
				}
				out = append(out, tk.text[i])
			}
			out = append(out, '\'')
		default:
			out = append(out, tk.text...)
		}
	}
	if l.err != nil {
		return "", fmt.Errorf("%w: %v", qerr.ErrParse, l.err)
	}
	return string(out), nil
}

// appendLower appends strings.ToLower(s) to dst, building no lowered
// copy of ASCII text.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendCanonicalNumber appends one spelling for the numbers a literal
// reads as alike ("1.50", "1.5", "15e-1"), keeping its kind: a token the
// parser reads as an INT stays in base-10 form, and one it reads as a
// FLOAT keeps a '.' or an exponent, so "2.0" is "2.0" and never the INT
// "2". A float zero of either sign renders as "0.0", so that Normalize is
// idempotent. A token the lexer accepted but strconv cannot parse is left
// verbatim — the parser will reject it later with a proper error.
func appendCanonicalNumber(dst []byte, text string) []byte {
	// As the parser reads it: a token with no '.' or exponent is an INT
	// when it fits one.
	if !strings.ContainsAny(text, ".eE") {
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return strconv.AppendInt(dst, n, 10)
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return append(dst, text...)
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f+0, 'g', -1, 64) // f+0: -0 renders as "0"
	if !bytes.ContainsAny(dst[start:], ".e") {
		dst = append(dst, ".0"...)
	}
	return dst
}

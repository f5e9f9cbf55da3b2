// Package sqlparse implements the small SQL dialect minequery accepts:
// single-table SELECT statements with optional PREDICTION JOINs against
// mining models (modeled on the Microsoft Analysis Server syntax shown
// in Section 2.2 of the paper) and WHERE clauses over data columns and
// predicted columns.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer hands out src's tokens one at a time. Keywords are returned as
// tokIdent; the parser matches them case-insensitively.
type lexer struct {
	src string
	pos int
	err error // the first lex error; from it on, every token is EOF
}

// next returns the next token, or EOF at the end of src or once a lex
// error has been found (l.err holds it).
func (l *lexer) next() token {
	if l.err != nil {
		return token{kind: tokEOF, pos: l.pos}
	}
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}
	}
	start := l.pos
	// Decode a full rune for dispatch: a multi-byte letter must start
	// an identifier as a whole, never be split at its first byte. An
	// invalid byte decodes as RuneError (width 1) and falls through to
	// the unexpected-character error below.
	c, w := utf8.DecodeRuneInString(l.src[l.pos:])
	switch {
	case isIdentStart(c) && (c != utf8.RuneError || w > 1):
		for l.pos < len(l.src) {
			r, rw := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentPart(r) || (r == utf8.RuneError && rw == 1) {
				break
			}
			l.pos += rw
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
	case c >= '0' && c <= '9' || c == '.' && l.peekDigit(1):
		return l.lexNumber(start)
	case c == '-' && l.peekDigit(1):
		l.pos++
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	}
	sym, n := l.matchSymbol()
	if n == 0 {
		l.err = fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, l.pos)
		return token{kind: tokEOF, pos: l.pos}
	}
	l.pos += n
	return token{kind: tokSymbol, text: sym, pos: start}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		r, w := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) || (r == utf8.RuneError && w == 1) {
			return
		}
		l.pos += w
	}
}

func (l *lexer) peekDigit(ahead int) bool {
	p := l.pos + ahead
	return p < len(l.src) && l.src[p] >= '0' && l.src[p] <= '9'
}

func (l *lexer) lexNumber(start int) token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
			l.pos++
			continue
		}
		if (c == '+' || c == '-') && l.pos > start {
			prev := l.src[l.pos-1]
			if prev == 'e' || prev == 'E' {
				l.pos++
				continue
			}
		}
		break
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}
}

// lexString reads a quoted literal. Its text is a piece of src unless
// it doubles a quote, which only a copy can undo.
func (l *lexer) lexString(start int) token {
	l.pos++ // opening quote
	rest := l.src[l.pos:]
	end := strings.IndexByte(rest, '\'')
	if end >= 0 && (end+1 == len(rest) || rest[end+1] != '\'') {
		l.pos += end + 1
		return token{kind: tokString, text: rest[:end], pos: start}
	}
	var b strings.Builder
	// The text up to the first quote is the literal's first piece.
	b.Grow(max(end, 0))
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}
		}
		b.WriteByte(c)
		l.pos++
	}
	l.err = fmt.Errorf("sqlparse: unterminated string literal at offset %d", start)
	return token{kind: tokEOF, pos: l.pos}
}

var symbols = []string{"<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "*", "[", "]"}

func (l *lexer) matchSymbol() (string, int) {
	rest := l.src[l.pos:]
	for _, s := range symbols {
		if strings.HasPrefix(rest, s) {
			return s, len(s)
		}
	}
	return "", 0
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

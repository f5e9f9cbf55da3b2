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

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex splits src into tokens. Keywords are returned as tokIdent; the
// parser matches them case-insensitively.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, countTokens(src))}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
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
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
		case c >= '0' && c <= '9' || c == '.' && l.peekDigit(1):
			l.lexNumber(start)
		case c == '-' && l.peekDigit(1):
			l.pos++
			l.lexNumber(start)
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		default:
			sym, n := l.matchSymbol()
			if n == 0 {
				return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, l.pos)
			}
			l.pos += n
			l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
}

// countTokens estimates, in one pass over the bytes, how many tokens lex
// finds in src, to size its slice: it counts the bytes that start one —
// a symbol byte, the quote opening a literal, any other byte after a
// space, a symbol or a literal — and the EOF token. Quoted text is
// skipped, so one long literal or identifier counts once. Two-byte
// symbols and the dot of a number count twice; tokens that abut with
// nothing between them (x-1) and Unicode spaces count short, and append
// absorbs those.
func countTokens(src string) int {
	n := 1
	inQuote, sep := false, true
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == '\'' {
			// A quote right after a closing one is a doubled quote inside
			// the same literal.
			if !inQuote && (i == 0 || src[i-1] != '\'') {
				n++
			}
			inQuote, sep = !inQuote, true
			continue
		}
		if inQuote {
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r', '\f', '\v':
			sep = true
		case '<', '>', '=', '!', '(', ')', ',', '.', '*', '[', ']':
			n++
			sep = true
		default:
			if sep {
				n++
			}
			sep = false
		}
	}
	return n
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

func (l *lexer) lexNumber(start int) {
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
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	var b strings.Builder
	// The text up to the next quote is the literal's, or its first piece.
	b.Grow(max(strings.IndexByte(l.src[l.pos:], '\''), 0))
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparse: unterminated string literal at offset %d", start)
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

package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"minequery/internal/expr"
	"minequery/internal/qerr"
	"minequery/internal/value"
)

// OnPair maps one model input column to a data column in a PREDICTION
// JOIN's ON clause.
type OnPair struct {
	ModelCol string
	DataCol  string
}

// PredictionJoin is one "PREDICTION JOIN model AS alias ON ..." clause.
type PredictionJoin struct {
	Model string
	Alias string
	On    []OnPair
}

// SelectItem is one entry of an explicit select list: a plain column
// reference, or an aggregate call when Agg is set (the lowercase
// function name: "count", "sum", "min", "max", "avg"; Star marks
// COUNT(*), whose Col is empty).
type SelectItem struct {
	Agg  string
	Col  string
	Star bool
}

// Query is a parsed SELECT statement.
type Query struct {
	// Select lists the plain (non-aggregate) projected columns; empty
	// means "*" for non-aggregate queries. Kept alongside Items for the
	// consumers that only project.
	Select []string
	// Items is the full select list in order (plain columns and
	// aggregate calls); empty means "*".
	Items []SelectItem
	// GroupBy lists the GROUP BY columns, in clause order.
	GroupBy []string
	// Table is the FROM table, Alias its optional alias.
	Table string
	Alias string
	// Joins are the PREDICTION JOIN clauses.
	Joins []PredictionJoin
	// Where is the predicate (TrueExpr if absent). Predicted columns
	// appear as "alias.column" atoms; data columns appear bare.
	Where expr.Expr
	// Limit is the row limit, or -1 if absent.
	Limit int64
}

// HasAggregates reports whether any select item is an aggregate call.
func (q *Query) HasAggregates() bool {
	for _, it := range q.Items {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

// Grouped reports whether the query aggregates: it has a GROUP BY
// clause or at least one aggregate select item.
func (q *Query) Grouped() bool { return len(q.GroupBy) > 0 || q.HasAggregates() }

// Parse parses one SELECT statement. Every error wraps qerr.ErrParse,
// so callers can classify parse failures with errors.Is without
// matching message text.
func Parse(src string) (*Query, error) {
	q, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", qerr.ErrParse, err)
	}
	return q, nil
}

func parse(src string) (*Query, error) {
	p := newParser(src)
	q, err := p.parseQuery()
	if lexErr := p.lexErr(); lexErr != nil {
		return nil, lexErr
	}
	return q, err
}

// parseQuery parses a whole SELECT statement.
func (p *parser) parseQuery() (*Query, error) {
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	if err := q.resolveRefs(); err != nil {
		return nil, err
	}
	return q, nil
}

// resolveRefs normalizes qualified column references after parsing: a
// qualifier naming the FROM table (or its alias) is stripped so data
// columns appear bare, a qualifier naming a PREDICTION JOIN alias (or
// its model) is kept — it denotes a predicted column — and any other
// qualifier is an error. Without this, "t.col" would be an unknown
// name that every predicate silently evaluates to false.
func (q *Query) resolveRefs() error {
	var firstErr error
	resolve := func(ref string) string {
		qual, col := splitQualifier(ref)
		if qual == "" {
			return ref
		}
		if strings.EqualFold(qual, q.Table) || (q.Alias != "" && strings.EqualFold(qual, q.Alias)) {
			return col
		}
		for _, j := range q.Joins {
			if strings.EqualFold(qual, j.Alias) || strings.EqualFold(qual, j.Model) {
				return ref
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("sqlparse: unknown qualifier %q in column reference %q", qual, ref)
		}
		return ref
	}
	for i, c := range q.Select {
		q.Select[i] = resolve(c)
	}
	for i := range q.Items {
		if !q.Items[i].Star {
			q.Items[i].Col = resolve(q.Items[i].Col)
		}
	}
	for i, c := range q.GroupBy {
		q.GroupBy[i] = resolve(c)
	}
	q.Where = expr.MapColumns(q.Where, resolve)
	return firstErr
}

// parser reads the tokens of one statement as the lexer finds them,
// two ahead: the current one and the one after it.
type parser struct {
	lx  lexer
	tok [2]token
}

func newParser(src string) *parser {
	p := &parser{lx: lexer{src: src}}
	p.tok[0] = p.lx.next()
	p.tok[1] = p.lx.next()
	return p
}

func (p *parser) peek() token { return p.tok[0] }

// peek2 is the token after the current one.
func (p *parser) peek2() token { return p.tok[1] }

func (p *parser) next() token {
	t := p.tok[0]
	if t.kind != tokEOF {
		p.tok[0] = p.tok[1]
		p.tok[1] = p.lx.next()
	}
	return t
}

// lexErr lexes the rest of the text and returns its first lex error, if
// any. A lex error anywhere outranks whatever the parser made of the
// tokens before it, so every result is checked against it.
func (p *parser) lexErr() error {
	for p.lx.next().kind != tokEOF {
	}
	return p.lx.err
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: "+format+" (at offset %d)", append(args, p.peek().pos)...)
}

// acceptKeyword consumes an identifier token equal (case-insensitively)
// to kw.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, found %q", sym, p.peek().text)
	}
	return nil
}

// ident reads a possibly bracket-quoted identifier.
func (p *parser) ident() (string, error) {
	if p.acceptSymbol("[") {
		t := p.next()
		if t.kind != tokIdent {
			return "", p.errf("expected identifier inside [ ], found %q", t.text)
		}
		if err := p.expectSymbol("]"); err != nil {
			return "", err
		}
		return t.text, nil
	}
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

// columnRef reads ident[.ident], returning the dotted form.
func (p *parser) columnRef() (string, error) {
	start := p.peek().pos
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptSymbol(".") {
		second, err := p.ident()
		if err != nil {
			return "", err
		}
		// Written without brackets or spaces, the dotted form is a piece
		// of the text.
		if end := start + len(first) + 1 + len(second); end <= len(p.lx.src) {
			if ref := p.lx.src[start:end]; ref[:len(first)] == first && ref[len(first)] == '.' && ref[len(first)+1:] == second {
				return ref, nil
			}
		}
		return first + "." + second, nil
	}
	return first, nil
}

var reservedAfterFrom = []string{"prediction", "where", "limit", "on", "and", "group"}

// aggFuncs are the aggregate function names the select list accepts.
var aggFuncs = []string{"count", "sum", "min", "max", "avg"}

// keyword returns the one of kws that text lowercases to, or "". It
// builds no lowered copy of ASCII text.
func keyword(text string, kws []string) string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			lower := strings.ToLower(text)
			for _, kw := range kws {
				if lower == kw {
					return kw
				}
			}
			return ""
		}
	}
next:
	for _, kw := range kws {
		if len(kw) != len(text) {
			continue
		}
		for i := 0; i < len(text); i++ {
			c := text[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return kw
	}
	return ""
}

func (p *parser) parseSelect() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1, Where: expr.TrueExpr{}}
	if p.acceptSymbol("*") {
		// empty Select/Items means all columns
	} else {
		for {
			it, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Items = append(q.Items, it)
			if it.Agg == "" {
				q.Select = append(q.Select, it.Col)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	q.Table = tbl
	if p.acceptKeyword("as") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		q.Alias = a
	} else if t := p.peek(); t.kind == tokIdent && keyword(t.text, reservedAfterFrom) == "" {
		q.Alias = t.text
		p.next()
	}
	for p.acceptKeyword("prediction") {
		if err := p.expectKeyword("join"); err != nil {
			return nil, err
		}
		j, err := p.parsePredictionJoin()
		if err != nil {
			return nil, err
		}
		q.Joins = append(q.Joins, j)
	}
	if p.acceptKeyword("where") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, found %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT value %q", t.text)
		}
		q.Limit = n
	}
	return q, nil
}

// parseSelectItem reads one select-list entry: an aggregate call
// (COUNT/SUM/MIN/MAX/AVG over a column, or COUNT(*)) or a plain column
// reference. An aggregate name is only treated as one when immediately
// followed by "(" — "count" stays usable as a column name.
func (p *parser) parseSelectItem() (SelectItem, error) {
	t, nt := p.peek(), p.peek2()
	if fn := keyword(t.text, aggFuncs); t.kind == tokIdent && fn != "" && nt.kind == tokSymbol && nt.text == "(" {
		p.next()
		p.next()
		it := SelectItem{Agg: fn}
		if p.acceptSymbol("*") {
			if fn != "count" {
				return SelectItem{}, p.errf("%s(*) is not supported, only COUNT(*)", strings.ToUpper(fn))
			}
			it.Star = true
		} else {
			col, err := p.columnRef()
			if err != nil {
				return SelectItem{}, err
			}
			it.Col = col
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectItem{}, err
		}
		return it, nil
	}
	col, err := p.columnRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *parser) parsePredictionJoin() (PredictionJoin, error) {
	model, err := p.ident()
	if err != nil {
		return PredictionJoin{}, err
	}
	j := PredictionJoin{Model: model, Alias: model}
	if p.acceptKeyword("as") {
		a, err := p.ident()
		if err != nil {
			return PredictionJoin{}, err
		}
		j.Alias = a
	} else if t := p.peek(); t.kind == tokIdent && keyword(t.text, reservedAfterFrom) == "" {
		j.Alias = t.text
		p.next()
	}
	if err := p.expectKeyword("on"); err != nil {
		return PredictionJoin{}, err
	}
	for {
		left, err := p.columnRef()
		if err != nil {
			return PredictionJoin{}, err
		}
		if err := p.expectSymbol("="); err != nil {
			return PredictionJoin{}, err
		}
		right, err := p.columnRef()
		if err != nil {
			return PredictionJoin{}, err
		}
		// By convention the model side is the one qualified with the
		// join alias (or model name); accept either order.
		pair, err := orientOnPair(&j, left, right)
		if err != nil {
			return PredictionJoin{}, err
		}
		j.On = append(j.On, pair)
		if !p.acceptKeyword("and") {
			break
		}
	}
	return j, nil
}

func orientOnPair(j *PredictionJoin, left, right string) (OnPair, error) {
	lq, lcol := splitQualifier(left)
	rq, rcol := splitQualifier(right)
	switch {
	case strings.EqualFold(lq, j.Alias) || strings.EqualFold(lq, j.Model):
		return OnPair{ModelCol: lcol, DataCol: stripAny(rq, rcol)}, nil
	case strings.EqualFold(rq, j.Alias) || strings.EqualFold(rq, j.Model):
		return OnPair{ModelCol: rcol, DataCol: stripAny(lq, lcol)}, nil
	default:
		return OnPair{}, fmt.Errorf("sqlparse: ON condition %s = %s does not reference model alias %q", left, right, j.Alias)
	}
}

func splitQualifier(ref string) (qualifier, col string) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}

func stripAny(_, col string) string { return col }

// Predicate grammar: or := and (OR and)*; and := unary (AND unary)*;
// unary := NOT unary | '(' or ')' | atom.
func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []expr.Expr{left}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return expr.NewOr(kids...), nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []expr.Expr{left}
	for p.acceptKeyword("and") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return expr.NewAnd(kids...), nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptKeyword("not") {
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return expr.Not{Kid: kid}, nil
	}
	if p.acceptSymbol("(") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseAtom()
}

var (
	boolWords    = []string{"true", "false"}
	literalWords = []string{"true", "false", "null"}
)

var cmpOps = map[string]expr.CmpOp{
	"=": expr.OpEq, "<>": expr.OpNe, "!=": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseAtom() (expr.Expr, error) {
	if t := p.peek(); t.kind == tokIdent {
		switch keyword(t.text, boolWords) {
		case "true":
			p.next()
			return expr.TrueExpr{}, nil
		case "false":
			p.next()
			return expr.FalseExpr{}, nil
		}
	}
	col, err := p.columnRef()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("in") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var vals []value.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return expr.In{Col: col, Vals: vals}, nil
	}
	t := p.next()
	if t.kind != tokSymbol {
		return nil, p.errf("expected comparison operator after %q, found %q", col, t.text)
	}
	op, ok := cmpOps[t.text]
	if !ok {
		return nil, p.errf("unknown operator %q", t.text)
	}
	// The right side is a literal or another column reference.
	switch rt := p.peek(); rt.kind {
	case tokIdent:
		if strings.EqualFold(rt.text, "true") || strings.EqualFold(rt.text, "false") ||
			strings.EqualFold(rt.text, "null") {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			return expr.Cmp{Col: col, Op: op, Val: v}, nil
		}
		other, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		return expr.ColCmp{ColA: col, Op: op, ColB: other}, nil
	default:
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return expr.Cmp{Col: col, Op: op, Val: v}, nil
	}
}

func (p *parser) literal() (value.Value, error) {
	t := p.next()
	switch t.kind {
	case tokString:
		return value.Str(t.text), nil
	case tokNumber:
		if !strings.ContainsAny(t.text, ".eE") {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return value.Int(n), nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Value{}, p.errf("bad number %q", t.text)
		}
		return value.Float(f), nil
	case tokIdent:
		switch keyword(t.text, literalWords) {
		case "true":
			return value.Bool(true), nil
		case "false":
			return value.Bool(false), nil
		case "null":
			return value.Null(), nil
		}
	}
	return value.Value{}, p.errf("expected literal, found %q", t.text)
}

package sqlparse

import (
	"fmt"
	"strings"

	"minequery/internal/expr"
	"minequery/internal/qerr"
	"minequery/internal/value"
)

// StmtKind discriminates the statement union.
type StmtKind int

const (
	// StmtSelect is a query; Statement.Select holds the parsed Query.
	StmtSelect StmtKind = iota
	// StmtInsert, StmtUpdate, StmtDelete are the DML statements.
	StmtInsert
	StmtUpdate
	StmtDelete
	// StmtCreateModel is the in-engine training DDL.
	StmtCreateModel
)

// Statement is the result of ParseStatement: exactly one of the typed
// fields matching Kind is non-nil.
type Statement struct {
	Kind        StmtKind
	Select      *Query
	Insert      *InsertStmt
	Update      *UpdateStmt
	Delete      *DeleteStmt
	CreateModel *CreateModelStmt
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...). Columns nil
// means "schema order, full arity".
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]value.Value
}

// Assignment is one SET col = literal pair.
type Assignment struct {
	Col string
	Val value.Value
}

// UpdateStmt is UPDATE t SET ... [WHERE pred]. Where nil matches every
// row. The predicate may reference data columns only.
type UpdateStmt struct {
	Table string
	Sets  []Assignment
	Where expr.Expr
}

// DeleteStmt is DELETE FROM t [WHERE pred]. Where nil matches every row.
type DeleteStmt struct {
	Table string
	Where expr.Expr
}

// CreateModelStmt is
//
//	CREATE MODEL name ON table PREDICT col USING family
//	    [AS SELECT cols|* FROM table [WHERE pred]]
//
// The AS SELECT clause narrows the relational training view: Features
// lists the input columns (nil with Star=true means every column except
// the predicted one), Where filters the training rows.
type CreateModelStmt struct {
	Name    string
	Table   string
	Predict string
	Family  string
	Feats   []string
	Star    bool
	Where   expr.Expr
	HasView bool
}

// ModelFamilies is the set of trainable model families, keyed by the
// USING name. Values are human labels for error messages.
var ModelFamilies = map[string]string{
	"dtree":  "decision tree",
	"nbayes": "naive Bayes",
	"rules":  "association rules",
	"kmeans": "k-means clustering",
	"gmm":    "Gaussian mixture",
}

// stmtVerbs are the verbs of the statements ParseStatement parses.
var stmtVerbs = []string{"select", "insert", "update", "delete", "create"}

// unsupportedVerbs are statement verbs we recognize but do not
// implement; they fail typed with qerr.ErrUnsupportedQuery instead of a
// generic parse error so clients can tell "wrong dialect" from
// "gibberish".
var unsupportedVerbs = map[string]bool{
	"drop": true, "alter": true, "truncate": true, "merge": true,
	"begin": true, "commit": true, "rollback": true, "set": true,
	"grant": true, "revoke": true, "with": true, "explain": true,
}

// ParseStatement parses one SQL statement: SELECT (delegating to the
// query parser), INSERT/UPDATE/DELETE, or CREATE MODEL. Malformed input
// wraps qerr.ErrParse; well-formed statements the engine does not
// support wrap qerr.ErrUnsupportedQuery.
func ParseStatement(src string) (*Statement, error) {
	p := newParser(src)
	st, err := p.parseStatement()
	if lexErr := p.lexErr(); lexErr != nil {
		return nil, fmt.Errorf("%w: %v", qerr.ErrParse, lexErr)
	}
	return st, err
}

func (p *parser) parseStatement() (*Statement, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("%w: sqlparse: expected a statement, found %q", qerr.ErrParse, t.text)
	}
	switch keyword(t.text, stmtVerbs) {
	case "select":
		q, err := p.parseQuery()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", qerr.ErrParse, err)
		}
		return &Statement{Kind: StmtSelect, Select: q}, nil
	case "insert":
		st, err := p.parseInsert()
		return wrapStmt(&Statement{Kind: StmtInsert, Insert: st}, err)
	case "update":
		st, err := p.parseUpdate()
		return wrapStmt(&Statement{Kind: StmtUpdate, Update: st}, err)
	case "delete":
		st, err := p.parseDelete()
		return wrapStmt(&Statement{Kind: StmtDelete, Delete: st}, err)
	case "create":
		return p.parseCreate()
	}
	if verb := strings.ToLower(t.text); unsupportedVerbs[verb] {
		return nil, fmt.Errorf("%w: statement %q is not supported", qerr.ErrUnsupportedQuery, strings.ToUpper(verb))
	}
	return nil, fmt.Errorf("%w: sqlparse: expected a statement, found %q", qerr.ErrParse, t.text)
}

func wrapStmt(st *Statement, err error) (*Statement, error) {
	if err != nil {
		return nil, fmt.Errorf("%w: %v", qerr.ErrParse, err)
	}
	return st, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		arity := len(st.Columns)
		if len(st.Rows) > 0 {
			arity = len(st.Rows[0])
		}
		row := make([]value.Value, 0, arity)
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if st.Columns != nil && len(row) != len(st.Columns) {
			return nil, p.errf("row has %d values for %d columns", len(row), len(st.Columns))
		}
		if len(st.Rows) > 0 && len(row) != len(st.Rows[0]) {
			return nil, p.errf("rows have inconsistent arity (%d vs %d)", len(row), len(st.Rows[0]))
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return st, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("update"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, Assignment{Col: col, Val: v})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	if st.Where, err = resolveDMLRefs(st.Where, table); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKeyword("where") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	if st.Where, err = resolveDMLRefs(st.Where, table); err != nil {
		return nil, err
	}
	return st, nil
}

// resolveDMLRefs strips table-name qualifiers from a DML predicate and
// rejects any other qualifier: DML predicates see exactly one table and
// no prediction joins.
func resolveDMLRefs(w expr.Expr, table string) (expr.Expr, error) {
	var firstErr error
	out := expr.MapColumns(w, func(ref string) string {
		qual, col := splitQualifier(ref)
		if qual == "" {
			return ref
		}
		if strings.EqualFold(qual, table) {
			return col
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("sqlparse: unknown qualifier %q in column reference %q", qual, ref)
		}
		return ref
	})
	return out, firstErr
}

// parseCreate dispatches CREATE MODEL; other CREATE objects (TABLE,
// INDEX, VIEW, ...) are recognized-but-unsupported.
func (p *parser) parseCreate() (*Statement, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, fmt.Errorf("%w: %v", qerr.ErrParse, err)
	}
	if !p.acceptKeyword("model") {
		obj := p.peek()
		if obj.kind == tokIdent {
			return nil, fmt.Errorf("%w: CREATE %s is not supported (only CREATE MODEL)",
				qerr.ErrUnsupportedQuery, strings.ToUpper(obj.text))
		}
		return nil, fmt.Errorf("%w: sqlparse: expected MODEL after CREATE, found %q", qerr.ErrParse, obj.text)
	}
	st, err := p.parseCreateModelBody()
	if err != nil {
		return nil, err
	}
	return &Statement{Kind: StmtCreateModel, CreateModel: st}, nil
}

func (p *parser) parseCreateModelBody() (*CreateModelStmt, error) {
	fail := func(err error) (*CreateModelStmt, error) {
		return nil, fmt.Errorf("%w: %v", qerr.ErrParse, err)
	}
	name, err := p.ident()
	if err != nil {
		return fail(err)
	}
	if err := p.expectKeyword("on"); err != nil {
		return fail(err)
	}
	table, err := p.ident()
	if err != nil {
		return fail(err)
	}
	if err := p.expectKeyword("predict"); err != nil {
		return fail(err)
	}
	predict, err := p.ident()
	if err != nil {
		return fail(err)
	}
	if err := p.expectKeyword("using"); err != nil {
		return fail(err)
	}
	family, err := p.ident()
	if err != nil {
		return fail(err)
	}
	family = strings.ToLower(family)
	st := &CreateModelStmt{Name: name, Table: table, Predict: predict, Family: family, Star: true}
	if p.acceptKeyword("as") {
		st.HasView = true
		if err := p.expectKeyword("select"); err != nil {
			return fail(err)
		}
		if p.acceptSymbol("*") {
			st.Star = true
		} else {
			st.Star = false
			for {
				c, err := p.ident()
				if err != nil {
					return fail(err)
				}
				st.Feats = append(st.Feats, c)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
		if err := p.expectKeyword("from"); err != nil {
			return fail(err)
		}
		from, err := p.ident()
		if err != nil {
			return fail(err)
		}
		if !strings.EqualFold(from, table) {
			return fail(fmt.Errorf("sqlparse: AS SELECT must read from %q (the ON table), not %q", table, from))
		}
		if p.acceptKeyword("where") {
			w, err := p.parseOr()
			if err != nil {
				return fail(err)
			}
			if st.Where, err = resolveDMLRefs(w, table); err != nil {
				return fail(err)
			}
		}
	}
	if !p.atEOF() {
		return fail(p.errf("unexpected trailing input %q", p.peek().text))
	}
	// Family is validated after the grammar so a typo'd family on an
	// otherwise well-formed statement fails typed, not as a parse error.
	if _, ok := ModelFamilies[family]; !ok {
		return nil, fmt.Errorf("%w: unknown model family %q (have dtree, nbayes, rules, kmeans, gmm)",
			qerr.ErrUnsupportedQuery, family)
	}
	return st, nil
}

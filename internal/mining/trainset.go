package mining

import (
	"errors"
	"fmt"
	"math"

	"minequery/internal/value"
)

// TrainSet is the literal, row-major form of a training input: input
// attribute rows plus one class label per row. Inducers train over
// Columns: the tree, rule and clustering families' Train over a TrainSet
// converts it with Columns and trains over that, so a hand-built set and
// a drained view take one path. (Naive Bayes counts rows, from either
// form.)
type TrainSet struct {
	// Schema describes the input attributes (not the label).
	Schema *value.Schema
	// Rows holds the input tuples, positionally aligned with Schema.
	Rows []value.Tuple
	// Labels holds the class label of each row.
	Labels []value.Value
}

// ErrEmptyTrainSet is the error of training over no rows.
var ErrEmptyTrainSet = errors.New("mining: empty train set")

// Validate checks arity consistency.
func (ts *TrainSet) Validate() error {
	if ts.Schema == nil {
		return fmt.Errorf("mining: train set has no schema")
	}
	if len(ts.Rows) != len(ts.Labels) {
		return fmt.Errorf("mining: %d rows but %d labels", len(ts.Rows), len(ts.Labels))
	}
	if len(ts.Rows) == 0 {
		return ErrEmptyTrainSet
	}
	for i, r := range ts.Rows {
		if len(r) != ts.Schema.Len() {
			return fmt.Errorf("mining: row %d arity %d, schema arity %d", i, len(r), ts.Schema.Len())
		}
	}
	return nil
}

// Columns converts the set to its column form after Validate.
func (ts *TrainSet) Columns() (*Columns, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	cs := NewColumns(ts.Schema, len(ts.Rows))
	for i, r := range ts.Rows {
		if err := cs.Append(r, ts.Labels[i]); err != nil {
			return nil, fmt.Errorf("%w (row %d)", err, i)
		}
	}
	return cs, nil
}

// Columns is a train set stored by attribute: one typed column per input
// and one class id per row. A numeric attribute (INT or FLOAT) is a
// []float64 — every inducer reads numbers through Value.AsFloat, and
// value.Compare orders INT against FLOAT in float64 — and every other
// kind is int32 codes over a dictionary. A row costs 8 bytes per numeric
// input, 4 per categorical one and 4 for its class, and no tuple.
type Columns struct {
	// Schema describes the input attributes (not the label).
	Schema *value.Schema
	// Cols[d] holds attribute d of every row.
	Cols []Column
	// Labels[i] is the class id of row i.
	Labels []int32
	// Classes[id] is the first label seen of class id, so Classes is in
	// first-seen order. Two labels are one class when they render the
	// same (see Interner).
	Classes []value.Value
	classes Interner
}

// NullCode is a categorical cell's code for NULL.
const NullCode = -1

// Column is one attribute of a Columns set. A numeric column fills Num
// and Null, a categorical one Codes and Dict.
type Column struct {
	// Numeric reports the attribute's kind is INT or FLOAT.
	Numeric bool
	// Num[i] is row i's value as AsFloat returns it, 0 when NULL.
	Num []float64
	// Null[i] reports that row i is NULL; Null is nil while no row is.
	Null []bool
	// Codes[i] is row i's member, NullCode when NULL.
	Codes []int32
	// Dict[code] is a member, in first-seen order. Members are distinct
	// by ==, so an INT 2 and a FLOAT 2, or a FLOAT -0 and 0, are two.
	Dict  []value.Value
	index map[value.Value]int32
	kind  value.Kind
}

// NewColumns returns an empty set over schema with room for rows rows.
func NewColumns(schema *value.Schema, rows int) *Columns {
	cs := &Columns{Schema: schema, Cols: make([]Column, schema.Len()), Labels: make([]int32, 0, rows)}
	for d := range cs.Cols {
		c := &cs.Cols[d]
		c.kind = schema.Col(d).Kind
		if c.Numeric = c.kind == value.KindInt || c.kind == value.KindFloat; c.Numeric {
			c.Num = make([]float64, 0, rows)
		} else {
			c.Codes, c.index = make([]int32, 0, rows), map[value.Value]int32{}
		}
	}
	return cs
}

// Append adds one row: in's first len(Cols) values are its inputs. A
// numeric attribute takes INT, FLOAT or NULL values only.
func (cs *Columns) Append(in value.Tuple, label value.Value) error {
	for d := range cs.Cols {
		if err := cs.Cols[d].append(in[d]); err != nil {
			return fmt.Errorf("mining: attribute %s: %w", cs.Schema.Col(d).Name, err)
		}
	}
	id := cs.classes.ID(label)
	if id == len(cs.Classes) {
		cs.Classes = append(cs.Classes, label)
	}
	cs.Labels = append(cs.Labels, int32(id))
	return nil
}

func (c *Column) append(v value.Value) error {
	if !c.Numeric {
		code := int32(NullCode)
		if !v.IsNull() {
			var ok bool
			if code, ok = c.index[v]; !ok {
				if len(c.Dict) == math.MaxInt32 {
					return fmt.Errorf("more than %d members", math.MaxInt32)
				}
				code = int32(len(c.Dict))
				c.index[v] = code
				c.Dict = append(c.Dict, v)
			}
		}
		c.Codes = append(c.Codes, code)
		return nil
	}
	switch v.Kind() {
	case value.KindNull:
		if c.Null == nil {
			c.Null = make([]bool, len(c.Num), cap(c.Num))
		}
		c.Num, c.Null = append(c.Num, 0), append(c.Null, true)
		return nil
	case value.KindInt, value.KindFloat:
		c.Num = append(c.Num, v.AsFloat())
		if c.Null != nil {
			c.Null = append(c.Null, false)
		}
		return nil
	}
	return fmt.Errorf("%s value in a %s column", v.Kind(), c.kind)
}

// Len returns the number of rows.
func (cs *Columns) Len() int { return len(cs.Labels) }

// ColumnNames returns the schema's column names in order.
func (cs *Columns) ColumnNames() []string { return columnNames(cs.Schema) }

// ColumnNames returns the schema's column names in order.
func (ts *TrainSet) ColumnNames() []string { return columnNames(ts.Schema) }

func columnNames(s *value.Schema) []string {
	out := make([]string, s.Len())
	for i := range out {
		out[i] = s.Col(i).Name
	}
	return out
}

// IsNull reports whether row i of the column is NULL.
func (c *Column) IsNull(i int) bool {
	if c.Numeric {
		return c.Null != nil && c.Null[i]
	}
	return c.Codes[i] == NullCode
}

// Value returns row i of the column as a value of the column's kind: a
// FLOAT keeps its bits, an INT comes back exactly within ±2^53.
func (c *Column) Value(i int) value.Value {
	switch {
	case c.IsNull(i):
		return value.Null()
	case !c.Numeric:
		return c.Dict[c.Codes[i]]
	case c.kind == value.KindInt:
		return value.Int(int64(c.Num[i]))
	}
	return value.Float(c.Num[i])
}

// Members numbers a categorical column's dictionary the two ways an
// inducer reads it.
type Members struct {
	// Rendering[code] numbers Dict[code] by Value.String, as an Interner
	// does, and Text[id] is rendering id's text: candidates are keyed so.
	Rendering []int32
	Text      []string
	// Equal[code] numbers Dict[code] by value.Equal, so "attr = v" holds
	// on a row whose member has v's Equal id. Numbers are keyed as Compare
	// orders them (INT 2 and FLOAT 2 are one, -0 and 0 are one, and so is
	// every NaN); two INTs past ±2^53 that round to one float64 share an
	// id too, where Compare tells them apart.
	Equal []int32
}

// Members numbers each categorical column's dictionary; a numeric
// column's entry is empty.
func (cs *Columns) Members() []Members {
	out := make([]Members, len(cs.Cols))
	for d := range cs.Cols {
		if !cs.Cols[d].Numeric {
			out[d] = cs.Cols[d].members()
		}
	}
	return out
}

func (c *Column) members() Members {
	var in Interner
	m := Members{Rendering: make([]int32, len(c.Dict)), Equal: make([]int32, len(c.Dict))}
	byKey := map[value.Value]int32{}
	for code, v := range c.Dict {
		m.Rendering[code] = int32(in.ID(v))
		key := v
		if k := v.Kind(); k == value.KindInt || k == value.KindFloat {
			switch f := v.AsFloat(); {
			case f == 0:
				key = value.Float(0)
			case math.IsNaN(f):
				key = value.Float(math.NaN())
			default:
				key = value.Float(f)
			}
		}
		id, ok := byKey[key]
		if !ok {
			id = int32(len(byKey))
			byKey[key] = id
		}
		m.Equal[code] = id
	}
	m.Text = in.texts
	return m
}

// Interner numbers values by their rendering (Value.String): two values
// get one id when they render the same — an INT 2 and a FLOAT 2 do, -0
// and 0 do not — which is how the inducers have always keyed their
// counts. Ids are dense and in first-seen order, so a value whose id
// equals the number of ids handed out before it is the first of its id.
// The zero Interner is ready to use.
//
// A value met before is recognized without being rendered, so each
// distinct value is rendered once: an INT by its integer, a TEXT by its
// string, any other value by == (a FLOAT's == comparing its bits). Each
// of those implies the same rendering.
type Interner struct {
	ints   map[int64]int
	strs   map[string]int
	exact  map[value.Value]int
	byText map[string]int
	texts  []string // texts[id]: the rendering of id
}

// ID returns v's id.
func (in *Interner) ID(v value.Value) int {
	switch v.Kind() {
	case value.KindInt:
		if id, ok := in.ints[v.AsInt()]; ok {
			return id
		}
		if in.ints == nil {
			in.ints = map[int64]int{}
		}
		id := in.render(v)
		in.ints[v.AsInt()] = id
		return id
	case value.KindString:
		if id, ok := in.strs[v.AsString()]; ok {
			return id
		}
		if in.strs == nil {
			in.strs = map[string]int{}
		}
		id := in.render(v)
		in.strs[v.AsString()] = id
		return id
	}
	if id, ok := in.exact[v]; ok {
		return id
	}
	if in.exact == nil {
		in.exact = map[value.Value]int{}
	}
	id := in.render(v)
	in.exact[v] = id
	return id
}

// render returns the id of v's rendering, handing out the next one when
// it is new.
func (in *Interner) render(v value.Value) int {
	text := v.String()
	id, ok := in.byText[text]
	if !ok {
		if in.byText == nil {
			in.byText = map[string]int{}
		}
		id = len(in.texts)
		in.byText[text] = id
		in.texts = append(in.texts, text)
	}
	return id
}

// Text returns the rendering of an id ID has handed out.
func (in *Interner) Text(id int) string { return in.texts[id] }

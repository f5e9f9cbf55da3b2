// Package value defines the typed scalar values, tuples, and schemas that
// flow through the minequery storage and execution layers.
//
// A Value is a small tagged union over the SQL-ish types the engine
// supports: 64-bit integers, 64-bit floats, strings, booleans, and NULL.
// Values are comparable with SQL semantics (NULL compares unknown and is
// ordered first for index purposes) and hashable for use in grouping and
// duplicate elimination.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed scalar. The zero Value is NULL.
//
// It is 32 bytes: one payload word shared by the numeric kinds, and a
// string header. == on two FLOATs therefore compares their bits (-0.0 and
// 0.0 differ, a NaN equals itself); Compare and Equal are the SQL
// comparisons.
type Value struct {
	kind Kind
	i    int64  // KindInt; KindBool (0/1); KindFloat as math.Float64bits
	s    string // KindString
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if v is not an INT.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the float payload; INT values are widened. It panics on
// other kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(uint64(v.i))
	case KindInt:
		return float64(v.i)
	}
	panic("value: AsFloat on " + v.kind.String())
}

// AsString returns the string payload. It panics if v is not TEXT.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the boolean payload. It panics if v is not BOOL.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("value: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// numeric reports whether the value participates in numeric comparison.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders a against b. NULL sorts before every non-NULL value and
// equal to NULL (total order suitable for index keys; predicate evaluation
// handles NULL separately). INT and FLOAT compare numerically across
// kinds, floats as cmp.Compare orders them: NaN equals NaN and sorts
// below every number, and -0.0 equals 0.0. Comparing incompatible
// non-numeric kinds orders by Kind so the order stays total.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmp.Compare(a.i, b.i)
		}
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	if a.kind != b.kind {
		switch {
		case a.kind < b.kind:
			return -1
		default:
			return 1
		}
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports whether a and b are the same value under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// canonFloat maps the floats Compare ties to one of them: -0.0 to 0.0,
// and every NaN payload to math.NaN().
func canonFloat(f float64) float64 {
	switch {
	case f == 0:
		return 0
	case math.IsNaN(f):
		return math.NaN()
	}
	return f
}

// String renders the value as display text: EXPLAIN output, plan text
// and rewrite notes, which goldens pin. It is not SQL: a string renders
// Go-quoted ("x", via strconv.Quote), and the dialect's lexer reads
// only single-quoted literals, so the text does not parse back.
func (v Value) String() string {
	var buf [64]byte
	return string(v.Append(buf[:0]))
}

// Append appends the value's String form to dst.
func (v Value) Append(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.AsFloat(), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(dst, v.s)
	case KindBool:
		if v.i != 0 {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	}
	return append(dst, '?')
}

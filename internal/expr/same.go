package expr

import (
	"math"

	"minequery/internal/value"
)

// Same reports whether a and b render alike, a.String() == b.String(),
// without rendering either. Two atoms are the same when they have the
// same node type, column(s) and operator, and values that render alike:
// INT 2 and FLOAT 2 do, -0 and 0 do not, and every NaN does. AND, OR
// and NOT are the same when their kids are, kid by kid; an AND or OR of
// one kid renders as that kid in parentheses whichever it is, and one of
// none as TRUE or FALSE. The equivalence assumes column names that are
// identifiers no literal is spelled as; a node type from outside this
// package is compared by its rendering.
func Same(a, b Expr) bool {
	if foreign(a) || foreign(b) {
		return a.String() == b.String()
	}
	switch x := a.(type) {
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Col == y.Col && x.Op == y.Op && sameValue(x.Val, y.Val)
	case In:
		y, ok := b.(In)
		if !ok || x.Col != y.Col || len(x.Vals) != len(y.Vals) {
			return false
		}
		for i := range x.Vals {
			if !sameValue(x.Vals[i], y.Vals[i]) {
				return false
			}
		}
		return true
	case ColCmp:
		y, ok := b.(ColCmp)
		return ok && x == y
	case Not:
		y, ok := b.(Not)
		return ok && Same(x.Kid, y.Kid)
	}
	ka, conjA, okA := junction(a)
	kb, conjB, okB := junction(b)
	if !okA || !okB || len(ka) != len(kb) || len(ka) != 1 && conjA != conjB {
		return false
	}
	for i := range ka {
		if !Same(ka[i], kb[i]) {
			return false
		}
	}
	return true
}

// junction returns the kids of an AND (conj) or OR; TRUE and FALSE are
// the ones with none.
func junction(e Expr) (kids []Expr, conj, ok bool) {
	switch x := e.(type) {
	case TrueExpr:
		return nil, true, true
	case FalseExpr:
		return nil, false, true
	case And:
		return x.Kids, true, true
	case Or:
		return x.Kids, false, true
	}
	return nil, false, false
}

func foreign(e Expr) bool {
	switch e.(type) {
	case Cmp, In, ColCmp, Not, And, Or, TrueExpr, FalseExpr:
		return false
	}
	return true
}

// sameValue reports whether a and b render alike (Value.String).
func sameValue(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		fa, fb := a.AsFloat(), b.AsFloat()
		return math.Float64bits(fa) == math.Float64bits(fb) || math.IsNaN(fa) && math.IsNaN(fb)
	}
	if a.Kind() == value.KindFloat {
		a, b = b, a
	}
	if a.Kind() == value.KindInt && b.Kind() == value.KindFloat {
		// A FLOAT renders as the INT it equals while it is integral,
		// not -0, and short of the exponent form from 1e6 up.
		f := b.AsFloat()
		return f == float64(a.AsInt()) && math.Abs(f) < 1e6 && !(f == 0 && math.Signbit(f))
	}
	return a == b
}

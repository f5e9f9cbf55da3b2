package expr

import "minequery/internal/value"

// ColCmp compares two columns of the same tuple, e.g. the paper's
// Section 4.1 predicate M1.Prediction_column = T.Data_column (after the
// prediction join has materialized the prediction as a column). It is an
// opaque atom for DNF purposes: the rewriter eliminates it by class
// enumeration before access-path selection, so the optimizer never needs
// to make it sargable.
type ColCmp struct {
	ColA string
	Op   CmpOp
	ColB string
}

// Eval implements Expr with SQL NULL semantics (NULL operands yield
// false).
func (c ColCmp) Eval(s *value.Schema, t value.Tuple) bool {
	i, j := s.Ordinal(c.ColA), s.Ordinal(c.ColB)
	if i < 0 || j < 0 {
		return false
	}
	a, b := t[i], t[j]
	if a.IsNull() || b.IsNull() {
		return false
	}
	return c.Op.Holds(value.Compare(a, b))
}

// String implements Expr.
func (c ColCmp) String() string {
	var buf [64]byte
	return string(c.Append(buf[:0]))
}

// Append appends c's String form, `colA op colB`, to dst.
func (c ColCmp) Append(dst []byte) []byte {
	dst = append(dst, c.ColA...)
	dst = append(dst, ' ')
	dst = append(dst, c.Op.String()...)
	dst = append(dst, ' ')
	return append(dst, c.ColB...)
}

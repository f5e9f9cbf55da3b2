package mining

import (
	"fmt"

	"minequery/internal/value"
)

// TrainSet is the common training input for all model inducers: input
// attribute rows plus one class label per row.
type TrainSet struct {
	// Schema describes the input attributes (not the label).
	Schema *value.Schema
	// Rows holds the input tuples, positionally aligned with Schema.
	Rows []value.Tuple
	// Labels holds the class label of each row.
	Labels []value.Value
}

// Validate checks arity consistency.
func (ts *TrainSet) Validate() error {
	if ts.Schema == nil {
		return fmt.Errorf("mining: train set has no schema")
	}
	if len(ts.Rows) != len(ts.Labels) {
		return fmt.Errorf("mining: %d rows but %d labels", len(ts.Rows), len(ts.Labels))
	}
	if len(ts.Rows) == 0 {
		return fmt.Errorf("mining: empty train set")
	}
	for i, r := range ts.Rows {
		if len(r) != ts.Schema.Len() {
			return fmt.Errorf("mining: row %d arity %d, schema arity %d", i, len(r), ts.Schema.Len())
		}
	}
	return nil
}

// ClassSet returns the distinct labels in first-seen order.
func (ts *TrainSet) ClassSet() []value.Value {
	_, classes := ts.ClassIDs()
	return classes
}

// ClassIDs interns the labels to dense class ids: ids[i] is the class of
// Labels[i] and classes[id] the first label seen of class id, so classes
// is in first-seen order. Two labels are one class when they render the
// same (Value.String) — an INT 2 and a FLOAT 2 are — which is how the
// inducers have always keyed their counts; interning renders each
// distinct label once where they rendered every row's on every count.
func (ts *TrainSet) ClassIDs() (ids []int, classes []value.Value) {
	ids = make([]int, len(ts.Labels))
	byText := map[string]int{}
	// Labels of every kind but FLOAT render alike exactly when they are
	// equal, so those are recognized without rendering. (NaN is not equal
	// to itself and -0 equals 0, yet one renders alike and the other not.)
	seen := map[value.Value]int{}
	for i, l := range ts.Labels {
		exact := l.Kind() != value.KindFloat
		id, ok := -1, false
		if exact {
			id, ok = seen[l]
		}
		if !ok {
			text := l.String()
			if id, ok = byText[text]; !ok {
				id = len(classes)
				byText[text] = id
				classes = append(classes, l)
			}
			if exact {
				seen[l] = id
			}
		}
		ids[i] = id
	}
	return ids, classes
}

// ColumnNames returns the schema's column names in order.
func (ts *TrainSet) ColumnNames() []string {
	out := make([]string, ts.Schema.Len())
	for i := range out {
		out[i] = ts.Schema.Col(i).Name
	}
	return out
}

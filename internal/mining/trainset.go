package mining

import (
	"errors"
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

// ClassSet returns the distinct labels in first-seen order.
func (ts *TrainSet) ClassSet() []value.Value {
	_, classes := ts.ClassIDs()
	return classes
}

// ClassIDs interns the labels to dense class ids: ids[i] is the class of
// Labels[i] and classes[id] the first label seen of class id, so classes
// is in first-seen order. Two labels are one class when they render the
// same (see Interner).
func (ts *TrainSet) ClassIDs() (ids []int, classes []value.Value) {
	ids = make([]int, len(ts.Labels))
	var in Interner
	for i, l := range ts.Labels {
		id := in.ID(l)
		if id == len(classes) {
			classes = append(classes, l)
		}
		ids[i] = id
	}
	return ids, classes
}

// Interner numbers values by their rendering (Value.String): two values
// get one id when they render the same — an INT 2 and a FLOAT 2 do, -0
// and 0 do not — which is how the inducers have always keyed their
// counts. Ids are dense and in first-seen order, so a value whose id
// equals the number of ids handed out before it is the first of its id.
// The zero Interner is ready to use.
//
// A value met before is recognized by == without being rendered, so each
// distinct value is rendered once: == implies the same rendering, a
// FLOAT's == comparing its bits.
type Interner struct {
	exact  map[value.Value]int
	byText map[string]int
	texts  []string // texts[id]: the rendering of id
}

// ID returns v's id.
func (in *Interner) ID(v value.Value) int {
	if id, ok := in.exact[v]; ok {
		return id
	}
	if in.exact == nil {
		in.exact, in.byText = map[value.Value]int{}, map[string]int{}
	}
	text := v.String()
	id, ok := in.byText[text]
	if !ok {
		id = len(in.texts)
		in.byText[text] = id
		in.texts = append(in.texts, text)
	}
	in.exact[v] = id
	return id
}

// Text returns the rendering of an id ID has handed out.
func (in *Interner) Text(id int) string { return in.texts[id] }

// ColumnNames returns the schema's column names in order.
func (ts *TrainSet) ColumnNames() []string {
	out := make([]string, ts.Schema.Len())
	for i := range out {
		out[i] = ts.Schema.Col(i).Name
	}
	return out
}

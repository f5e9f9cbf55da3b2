// Package mining defines the model abstraction shared by the minequery
// engine: a predictive mining model that maps an input tuple to one of K
// discrete classes. Concrete model families (decision trees, naive
// Bayes, rule sets, clustering) live in subpackages; the envelope
// derivation algorithms of the paper live in internal/core.
//
// The families train over Columns: a train set stored by attribute, a
// []float64 per numeric input and dictionary codes per categorical one,
// with one int32 class id per row. The engine drains a relational view
// straight into it; TrainSet, rows of tuples with their labels, is the
// literal form a caller may build, which TrainSet.Columns converts.
package mining

import (
	"minequery/internal/value"
)

// Model is a trained discrete predictive model, the object the paper
// calls M. A model declares its input columns (matched by name against
// the joined relation), the name of its prediction column, and the set
// of class labels it can emit.
type Model interface {
	// Name is the model's catalog name.
	Name() string
	// PredictColumn is the name of the predicted output column (e.g.
	// "Risk" in the paper's Risk_Class example).
	PredictColumn() string
	// InputColumns lists the source columns the model consumes, in the
	// order Predict expects them.
	InputColumns() []string
	// Classes enumerates the distinct class labels the model can
	// predict. Section 4.1's join rewrites rely on this enumeration
	// being available from model metadata.
	Classes() []value.Value
	// Predict returns the predicted class for one input tuple, aligned
	// positionally with InputColumns. A prediction that reads a NULL
	// input is NULL, as SQL's function of a NULL is: it matches no class,
	// so no envelope has to admit a NULL. A family that reads every input
	// (naive Bayes, clustering) predicts NULL whenever one is NULL; a tree
	// or rule list only when the path it takes reads one.
	Predict(in value.Tuple) value.Value
}

// AnyNull reports whether some value of in is NULL, which makes the
// prediction of a model that reads every input NULL.
func AnyNull(in value.Tuple) bool {
	for _, v := range in {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// Binding resolves a model's input columns against a relation schema,
// producing the ordinals to project before calling Predict.
type Binding struct {
	Model    Model
	Ordinals []int
}

// Bind matches m's input columns against s by name (case-insensitive).
func Bind(m Model, s *value.Schema) (Binding, bool) {
	cols := m.InputColumns()
	ords := make([]int, len(cols))
	for i, c := range cols {
		o := s.Ordinal(c)
		if o < 0 {
			return Binding{}, false
		}
		ords[i] = o
	}
	return Binding{Model: m, Ordinals: ords}, true
}

// Predict projects t through the binding and predicts.
func (b Binding) Predict(t value.Tuple) value.Value {
	in := make(value.Tuple, len(b.Ordinals))
	for i, o := range b.Ordinals {
		in[i] = t[o]
	}
	return b.Model.Predict(in)
}

// PredictInto is Predict with a caller-provided scratch buffer to avoid
// per-row allocation in tight executor loops. buf must have capacity for
// len(b.Ordinals) values.
func (b Binding) PredictInto(t value.Tuple, buf value.Tuple) value.Value {
	in := buf[:len(b.Ordinals)]
	for i, o := range b.Ordinals {
		in[i] = t[o]
	}
	return b.Model.Predict(in)
}

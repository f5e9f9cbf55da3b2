package core

// Section 4.1, once: which WHERE-tree atoms over a prediction column
// have an upper envelope u_f (f ⇒ u_f, over data columns only), how it
// is assembled from the catalog's per-class envelopes U_c, and what it
// is memoized under. The query rewriter ANDs u_f onto f. PredCols.Weaken
// is the one weakening of a WHERE to the data columns: the rewriter's
// data predicate drops f, whose u_f is already ANDed on, and a standing
// subscription's guard puts u_f in place of f. Both take u_f from
// AtomEnvelope.Cached, under the key below. Soundness and the key
// scheme: DESIGN §4b item 9.
//
//	atom              u_f                                 key: shape|fingerprint|sorted labels
//	pred = c          U_c                                 eq|fp|c
//	pred <> c         ∨ U_c' over the other classes c'    ne:c|fp|c'…
//	pred IN (c1…cn)   ∨ U_ci                              in|fp|c1…cn
//	predA = predB     ∨ U_A,c ∧ U_B,c over common c       mm:fpB|fpA|c…
//	pred = data       ∨ U_c ∧ data = c over all classes   md:data|fp|c…
//
// U_c is FALSE for a label outside the model's class set and TRUE when
// no envelope is cached for the class. Any other operator has none.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// PredCols maps a query's prediction columns to the model entries
// producing them.
type PredCols map[string]*catalog.ModelEntry

// ResolvePredCols resolves each PREDICTION JOIN of q to its output
// column.
func ResolvePredCols(q *sqlparse.Query, cat *catalog.Catalog) (PredCols, error) {
	pc := PredCols{}
	for _, j := range q.Joins {
		me, ok := cat.Model(j.Model)
		if !ok {
			return nil, fmt.Errorf("core: %w %q", qerr.ErrUnknownModel, j.Model)
		}
		pc[me.PredictionColumn(j.Alias).Name] = me
	}
	return pc, nil
}

// PostPredictSchema is the schema of a row of q's table after its
// prediction joins: base's columns plus one predicted column per
// PREDICTION JOIN, in join order, exactly as the Predict operators
// append them at execution.
func PostPredictSchema(q *sqlparse.Query, cat *catalog.Catalog, base *value.Schema) (*value.Schema, error) {
	cols := append(make([]value.Column, 0, base.Len()+len(q.Joins)), base.Columns...)
	for _, j := range q.Joins {
		me, ok := cat.Model(j.Model)
		if !ok {
			return nil, fmt.Errorf("core: %w %q", qerr.ErrUnknownModel, j.Model)
		}
		cols = append(cols, me.PredictionColumn(j.Alias))
	}
	return value.NewSchema(cols...)
}

// Model returns the model predicting col, if col is a prediction
// column of the query.
func (pc PredCols) Model(col string) (*catalog.ModelEntry, bool) {
	me, ok := pc[strings.ToLower(col)]
	return me, ok
}

// Note is one note of an envelope derivation with the statement's
// column spelling left out, so an entry cached by one statement reads
// correctly in another: Text follows the atom's Subject column.
type Note struct {
	// Subject is 0 or 1 for the atom's first or second column, or
	// subjectBoth for "first = second".
	Subject int
	Text    string
}

const subjectBoth = 2

// AtomEnvelope is the table's answer for one mining atom: the key its
// envelope is memoized under and the recipe assembling it.
type AtomEnvelope struct {
	Key string
	// Build assembles the envelope. notes, when non-nil, receives what
	// the derivation did, for EXPLAIN.
	Build func(notes *[]Note) expr.Expr
	// cols are the atom's columns as the statement spells them, the
	// prediction column first.
	cols [2]string
}

// Render spells a derivation note with this atom's columns.
func (a AtomEnvelope) Render(n Note) string {
	if n.Subject == subjectBoth {
		return a.cols[0] + " = " + a.cols[1] + n.Text
	}
	return a.cols[n.Subject] + n.Text
}

// Cached returns the envelope and the notes of its derivation: the
// cache's entry under Key when it holds one, else built and put there.
// A nil cache builds every time. The rewriter and the standing compiler
// both come through here, so an entry either of them fills serves the
// other.
func (a AtomEnvelope) Cached(cache EnvelopeCache) CachedEnvelope {
	if cache != nil {
		if ce, ok := cache.Get(a.Key); ok {
			return ce
		}
	}
	var ce CachedEnvelope
	ce.Pred = a.Build(&ce.Notes)
	if cache != nil {
		cache.Put(a.Key, ce)
	}
	return ce
}

// Weaken weakens e to schema's columns, the base table's: the result
// holds on every row e holds on, so it can stand in for e before the
// prediction joins run. A subtree over schema's columns only stays as
// it is. AND, OR and NOT weaken their kids in e's order under a
// polarity each NOT flips, so a NOT weakens as its negation normal form
// does. A mining atom becomes region of its envelope, or TRUE when
// region is nil or the rule table has none, and TRUE when negated,
// since no rule bounds a negated one.
func (pc PredCols) Weaken(e expr.Expr, schema *value.Schema, region func(AtomEnvelope) expr.Expr) expr.Expr {
	return pc.weaken(e, schema, region, false)
}

func (pc PredCols) weaken(e expr.Expr, schema *value.Schema, region func(AtomEnvelope) expr.Expr, neg bool) expr.Expr {
	if expr.Unresolved(e, schema) == "" {
		if neg {
			return expr.Not{Kid: e}
		}
		return e
	}
	var kids []expr.Expr
	conj := false
	switch x := e.(type) {
	case expr.Not:
		return pc.weaken(x.Kid, schema, region, !neg)
	case expr.And:
		kids, conj = x.Kids, !neg
	case expr.Or:
		kids, conj = x.Kids, neg
	default:
		if !neg && region != nil {
			if env, ok := pc.Envelope(e); ok {
				return region(env)
			}
		}
		return expr.TrueExpr{}
	}
	out := make([]expr.Expr, len(kids))
	for i, k := range kids {
		out[i] = pc.weaken(k, schema, region, neg)
	}
	if conj {
		return expr.NewAnd(out...)
	}
	return expr.NewOr(out...)
}

// Envelope looks atom up in the rule table. ok is false for anything
// that is not a mining atom of one of the five shapes.
func (pc PredCols) Envelope(atom expr.Expr) (AtomEnvelope, bool) {
	switch x := atom.(type) {
	case expr.Cmp:
		me, isPred := pc.Model(x.Col)
		if !isPred {
			break
		}
		switch x.Op {
		case expr.OpEq:
			return AtomEnvelope{
				Key:  classSetKey("eq", me, []value.Value{x.Val}),
				cols: [2]string{x.Col},
				Build: func(notes *[]Note) expr.Expr {
					return classEnvelope(me, x.Val, 0, notes)
				},
			}, true
		case expr.OpNe:
			// pred <> c is an IN over the remaining classes.
			var rest []value.Value
			for _, c := range me.Classes() {
				if !value.Equal(c, x.Val) {
					rest = append(rest, c)
				}
			}
			return AtomEnvelope{
				Key:  classSetKey("ne:"+valueKey(x.Val), me, rest),
				cols: [2]string{x.Col},
				Build: func(notes *[]Note) expr.Expr {
					u := unionOver(rest, func(c value.Value) expr.Expr {
						return classEnvelope(me, c, 0, notes)
					})
					addNote(notes, 0, " <> %s: envelope disjunction over %d remaining classes", x.Val, len(rest))
					return u
				},
			}, true
		}
	case expr.In:
		me, isPred := pc.Model(x.Col)
		if !isPred {
			break
		}
		return AtomEnvelope{
			Key:  classSetKey("in", me, x.Vals),
			cols: [2]string{x.Col},
			Build: func(notes *[]Note) expr.Expr {
				u := unionOver(x.Vals, func(c value.Value) expr.Expr {
					return classEnvelope(me, c, 0, notes)
				})
				addNote(notes, 0, " IN (...): envelope disjunction over %d classes", len(x.Vals))
				return u
			},
		}, true
	case expr.ColCmp:
		if x.Op != expr.OpEq {
			break
		}
		meA, okA := pc.Model(x.ColA)
		meB, okB := pc.Model(x.ColB)
		switch {
		case okA && okB:
			// Join between two predicted columns: both must predict the
			// same label, so only the common classes can satisfy it.
			common := commonClasses(meA, meB)
			return AtomEnvelope{
				Key:  classSetKey("mm:"+meB.Fingerprint, meA, common),
				cols: [2]string{x.ColA, x.ColB},
				Build: func(notes *[]Note) expr.Expr {
					u := unionOver(common, func(c value.Value) expr.Expr {
						return expr.NewAnd(classEnvelope(meA, c, 0, notes), classEnvelope(meB, c, 1, notes))
					})
					addNote(notes, subjectBoth, ": model-model join over %d common classes", len(common))
					return u
				},
			}, true
		case okA != okB:
			// Join between a predicted column and a data column:
			// enumerate the model's classes.
			me, predCol, dataCol := meA, x.ColA, x.ColB
			if okB {
				me, predCol, dataCol = meB, x.ColB, x.ColA
			}
			classes := me.Classes()
			return AtomEnvelope{
				Key:  classSetKey("md:"+strings.ToLower(dataCol), me, classes),
				cols: [2]string{predCol, dataCol},
				Build: func(notes *[]Note) expr.Expr {
					u := unionOver(classes, func(c value.Value) expr.Expr {
						return expr.NewAnd(classEnvelope(me, c, 0, notes), expr.Cmp{Col: dataCol, Op: expr.OpEq, Val: c})
					})
					addNote(notes, subjectBoth, ": model-data join over %d classes", len(classes))
					return u
				},
			}, true
		}
	}
	return AtomEnvelope{}, false
}

// classEnvelope is U_c for one class of one model, noted against the
// atom's subject-th column.
func classEnvelope(me *catalog.ModelEntry, class value.Value, subject int, notes *[]Note) expr.Expr {
	if !hasClass(me, class) {
		addNote(notes, subject, " = %s: label outside model's class set, predicate is unsatisfiable", class)
		return expr.FalseExpr{}
	}
	if u, _, ok := me.Envelope(class); ok {
		addNote(notes, subject, " = %s: added atomic envelope", class)
		return u
	}
	addNote(notes, subject, " = %s: no cached envelope, left unaugmented", class)
	return expr.TrueExpr{}
}

func addNote(notes *[]Note, subject int, format string, args ...any) {
	if notes != nil {
		*notes = append(*notes, Note{Subject: subject, Text: fmt.Sprintf(format, args...)})
	}
}

// unionOver is the disjunction of per(c) over classes.
func unionOver(classes []value.Value, per func(value.Value) expr.Expr) expr.Expr {
	kids := make([]expr.Expr, 0, len(classes))
	for _, c := range classes {
		kids = append(kids, per(c))
	}
	return expr.NewOr(kids...)
}

// classSetKey builds a cache key from the predicate shape, the model's
// content fingerprint, and the (sorted) class labels involved. The
// fingerprint folds in the envelope set, so any retrain or envelope
// change yields fresh keys and old entries simply rot unused.
func classSetKey(shape string, me *catalog.ModelEntry, classes []value.Value) string {
	keys := make([]string, len(classes))
	for i, c := range classes {
		keys[i] = valueKey(c)
	}
	sort.Strings(keys)
	return shape + "|" + me.Fingerprint + "|" + strings.Join(keys, ",")
}

// valueKey encodes a class label unambiguously (kind-tagged, so
// Int(1) and Str("1") never collide).
func valueKey(v value.Value) string {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(v.Kind()), 10)
	return string(v.Append(append(b, ':')))
}

func hasClass(me *catalog.ModelEntry, class value.Value) bool {
	for _, c := range me.Classes() {
		if value.Equal(c, class) {
			return true
		}
	}
	return false
}

func commonClasses(a, b *catalog.ModelEntry) []value.Value {
	var out []value.Value
	for _, c := range a.Classes() {
		if hasClass(b, c) {
			out = append(out, c)
		}
	}
	return out
}

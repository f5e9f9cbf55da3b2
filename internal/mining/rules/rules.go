// Package rules implements a sequential-covering rule learner in the
// style of Section 3.1's rule-based classifiers: an ordered list of
// if-then rules whose bodies are conjunctions of simple attribute
// conditions, resolved first-match with a default class. Because rule
// bodies are already propositional selection predicates, the upper
// envelope of a class is simply the disjunction of its rule bodies
// (plus the default-class remainder), as the paper observes.
package rules

import (
	"cmp"
	"fmt"
	"sort"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/value"
)

// Rule is one if-then rule: body (a conjunction of atomic conditions,
// each an expr.Cmp of an input column with a non-NULL literal, as
// training builds them) and a head class.
type Rule struct {
	Body  []expr.Expr
	Class value.Value
}

// Model is an ordered rule list with a default class.
type Model struct {
	name    string
	predCol string
	cols    []string
	classes []value.Value
	schema  *value.Schema

	Rules   []Rule
	Default value.Value
}

// Options tunes training.
type Options struct {
	// MaxConds bounds conditions per rule (default 4).
	MaxConds int
	// MinCoverage is the minimum number of positives a rule must cover
	// (default 3).
	MinCoverage int
	// MinPrecision is the precision at which rule growth stops early
	// (default 0.9).
	MinPrecision float64
}

func (o *Options) fill() {
	if o.MaxConds <= 0 {
		o.MaxConds = 4
	}
	if o.MinCoverage <= 0 {
		o.MinCoverage = 3
	}
	if o.MinPrecision <= 0 {
		o.MinPrecision = 0.9
	}
}

// TrainColumns learns an ordered rule list by sequential covering:
// classes are processed from rarest to most common; the most common
// class becomes the default.
func TrainColumns(name, predCol string, cs *mining.Columns, opts Options) (*Model, error) {
	if cs.Len() == 0 {
		return nil, fmt.Errorf("rules: %w", mining.ErrEmptyTrainSet)
	}
	opts.fill()
	counts := make([]int, len(cs.Classes))
	for _, id := range cs.Labels {
		counts[id]++
	}
	// order lists the class ids from rarest to most common.
	order := make([]int32, len(cs.Classes))
	for id := range order {
		order[id] = int32(id)
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := counts[order[i]], counts[order[j]]
		if ci != cj {
			return ci < cj
		}
		return value.Compare(cs.Classes[order[i]], cs.Classes[order[j]]) < 0
	})
	m := &Model{
		name:    name,
		predCol: predCol,
		cols:    cs.ColumnNames(),
		schema:  cs.Schema,
		Default: cs.Classes[order[len(order)-1]], // most common class
	}
	// Stable class order for Classes(): sorted by value.
	for _, id := range order {
		m.classes = append(m.classes, cs.Classes[id])
	}
	sort.Slice(m.classes, func(i, j int) bool { return value.Compare(m.classes[i], m.classes[j]) < 0 })

	g := newGrower(cs)
	active := make([]bool, cs.Len())
	for i := range active {
		active[i] = true
	}
	for _, cls := range order[:len(order)-1] {
		g.target(cls)
		for {
			rule, covered := g.growRule(active, opts)
			if rule == nil {
				break
			}
			m.Rules = append(m.Rules, *rule)
			for _, i := range covered {
				active[i] = false
			}
		}
	}
	return m, nil
}

// grower grows the rules of one class at a time over a train set's
// columns.
type grower struct {
	cs *mining.Columns
	// members[d] numbers categorical attribute d's members.
	members []mining.Members
	// cls is the class a rule is grown for, and positive[id] reports
	// whether class id's label equals it under value.Equal.
	cls      value.Value
	positive []bool
}

func newGrower(cs *mining.Columns) *grower {
	return &grower{cs: cs, members: cs.Members(), positive: make([]bool, len(cs.Classes))}
}

// target makes class id the class rules are grown for. A row counts as
// positive when its label equals that class's under value.Equal, which
// is decided per class: labels of one class render alike, so they are
// numerically equal or identical, and Equal answers alike for each.
func (g *grower) target(id int32) {
	g.cls = g.cs.Classes[id]
	for k, l := range g.cs.Classes {
		g.positive[k] = value.Equal(l, g.cls)
	}
}

// growRule greedily adds the condition that maximizes precision (ties
// broken by coverage) until precision is high enough or MaxConds is
// reached. It returns nil when no useful rule remains.
func (g *grower) growRule(active []bool, opts Options) (*Rule, []int) {
	var body []expr.Expr
	covered := make([]int, 0, len(active))
	for i, a := range active {
		if a {
			covered = append(covered, i)
		}
	}
	for len(body) < opts.MaxConds {
		prec, pos := g.precision(covered)
		if pos < opts.MinCoverage {
			return nil, nil
		}
		if prec >= opts.MinPrecision {
			break
		}
		cond, newCovered := g.bestCondition(covered, prec)
		if cond == nil {
			break
		}
		body = append(body, cond)
		covered = newCovered
	}
	prec, pos := g.precision(covered)
	if len(body) == 0 || pos < opts.MinCoverage || prec <= 0.5 {
		return nil, nil
	}
	return &Rule{Body: body, Class: g.cls}, covered
}

func (g *grower) precision(covered []int) (float64, int) {
	if len(covered) == 0 {
		return 0, 0
	}
	pos := 0
	for _, i := range covered {
		if g.positive[g.cs.Labels[i]] {
			pos++
		}
	}
	return float64(pos) / float64(len(covered)), pos
}

// maxThresholdCandidates caps numeric threshold candidates per grow step.
const maxThresholdCandidates = 16

func (g *grower) bestCondition(covered []int, basePrec float64) (expr.Expr, []int) {
	var best expr.Expr
	var bestCovered []int
	bestScore := basePrec
	bestPos := 0
	// try scores cond, which holds on row i when holds(i) does.
	try := func(cond expr.Expr, holds func(i int) bool) {
		var sub []int
		for _, i := range covered {
			if holds(i) {
				sub = append(sub, i)
			}
		}
		prec, pos := g.precision(sub)
		if pos == 0 || len(sub) == len(covered) {
			return
		}
		if prec > bestScore || (prec == bestScore && pos > bestPos) {
			best, bestCovered, bestScore, bestPos = cond, sub, prec, pos
		}
	}
	for d := 0; d < g.cs.Schema.Len(); d++ {
		col := g.cs.Schema.Col(d).Name
		c := &g.cs.Cols[d]
		if c.Numeric {
			vals := make([]float64, 0, len(covered))
			for _, i := range covered {
				if !c.IsNull(i) {
					vals = append(vals, c.Num[i])
				}
			}
			sort.Float64s(vals)
			step := len(vals) / maxThresholdCandidates
			if step == 0 {
				step = 1
			}
			for i := step; i < len(vals); i += step {
				if vals[i] == vals[i-1] {
					continue
				}
				// Cmp.Eval over the row: NULL fails, and an INT compares
				// with the FLOAT threshold in float64.
				t := (vals[i] + vals[i-1]) / 2
				try(expr.Cmp{Col: col, Op: expr.OpLe, Val: value.Float(t)},
					func(i int) bool { return !c.IsNull(i) && cmp.Compare(c.Num[i], t) <= 0 })
				try(expr.Cmp{Col: col, Op: expr.OpGt, Val: value.Float(t)},
					func(i int) bool { return !c.IsNull(i) && cmp.Compare(c.Num[i], t) > 0 })
			}
		} else {
			// The members among covered by rendering, each the last seen.
			ms := &g.members[d]
			last := map[int32]int32{}
			for _, i := range covered {
				if code := c.Codes[i]; code != mining.NullCode {
					last[ms.Rendering[code]] = code
				}
			}
			renderings := make([]int32, 0, len(last))
			for m := range last {
				renderings = append(renderings, m)
			}
			sort.Slice(renderings, func(i, j int) bool { return ms.Text[renderings[i]] < ms.Text[renderings[j]] })
			for _, m := range renderings {
				code := last[m]
				eq := ms.Equal[code]
				try(expr.Cmp{Col: col, Op: expr.OpEq, Val: c.Dict[code]},
					func(i int) bool { k := c.Codes[i]; return k != mining.NullCode && ms.Equal[k] == eq })
			}
		}
	}
	return best, bestCovered
}

// Name implements mining.Model.
func (m *Model) Name() string { return m.name }

// PredictColumn implements mining.Model.
func (m *Model) PredictColumn() string { return m.predCol }

// InputColumns implements mining.Model.
func (m *Model) InputColumns() []string { return m.cols }

// Classes implements mining.Model.
func (m *Model) Classes() []value.Value { return m.classes }

// Schema exposes the input schema (needed for envelope derivation and
// rule evaluation).
func (m *Model) Schema() *value.Schema { return m.schema }

// Predict implements mining.Model with first-match semantics: a rule's
// atoms are read in order, a false one ends its body and the next rule
// is tried, and one that reads a NULL input predicts NULL.
func (m *Model) Predict(in value.Tuple) value.Value {
next:
	for _, r := range m.Rules {
		for _, a := range r.Body {
			c := a.(expr.Cmp)
			v := in[m.schema.Ordinal(c.Col)]
			if v.IsNull() {
				return value.Null()
			}
			if !c.Op.Holds(value.Compare(v, c.Val)) {
				continue next
			}
		}
		return r.Class
	}
	return m.Default
}

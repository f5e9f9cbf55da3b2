package standing

// naiveMatcher is the unshared baseline and differential oracle: each
// subscription is evaluated independently, per predicate per row, the
// way the engine's own post-prediction filter would — the row is
// extended with one predicted column per PREDICTION JOIN (a fresh model
// call each, no memoization, no envelopes, no index) and the parsed
// WHERE tree is evaluated directly over the extended schema. The
// compiled set decides a candidate with the same expr.Eval, so what
// agreement between the two proves is everything the set adds around
// it: the interval index's pruning, the guard's gating of model calls,
// the per-row prediction memo and the extended-row buffer it shares
// across candidates, and the projection.

import (
	"fmt"
	"strings"

	"minequery/internal/catalog"
	"minequery/internal/mining"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// naiveMatch is one oracle match.
type naiveMatch struct {
	SubID   int64
	Columns []string
	Row     value.Tuple
}

// naiveSub is one independently evaluated subscription.
type naiveSub struct {
	id    int64
	table string // lower
	q     *sqlparse.Query
	ext   *value.Schema // base schema + predicted columns
	joins []naiveJoin
	sel   []int // ordinals into ext, per projected column
	cols  []string
	baseN int
}

// naiveJoin is one PREDICTION JOIN's binding and output slot.
type naiveJoin struct {
	binding mining.Binding
	out     int // ordinal in ext
}

// naiveMatcher evaluates subscriptions one by one.
type naiveMatcher struct {
	cat  *catalog.Catalog
	subs []*naiveSub
	// ModelCalls counts Predict invocations (for the sharing
	// comparison).
	ModelCalls int64
}

// newNaiveMatcher returns an empty matcher over cat.
func newNaiveMatcher(cat *catalog.Catalog) *naiveMatcher {
	return &naiveMatcher{cat: cat}
}

// Register adds one subscription under the given id.
func (m *naiveMatcher) Register(id int64, sql string) error {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	t, ok := m.cat.Table(q.Table)
	if !ok {
		return fmt.Errorf("standing: %w %q", qerr.ErrUnknownTable, q.Table)
	}
	cols := append([]value.Column(nil), t.Schema.Columns...)
	var joins []naiveJoin
	for _, j := range q.Joins {
		me, ok := m.cat.Model(j.Model)
		if !ok {
			return fmt.Errorf("standing: %w %q", qerr.ErrUnknownModel, j.Model)
		}
		bind, ok := mining.Bind(me.Model, t.Schema)
		if !ok {
			return fmt.Errorf("standing: %w: model %q inputs not in %q", qerr.ErrUnsupportedQuery, j.Model, t.Name)
		}
		kind := value.KindString
		if cls := me.Model.Classes(); len(cls) > 0 {
			kind = cls[0].Kind()
		}
		cols = append(cols, value.Column{
			Name: strings.ToLower(j.Alias + "." + me.Model.PredictColumn()),
			Kind: kind,
		})
		joins = append(joins, naiveJoin{binding: bind, out: len(cols) - 1})
	}
	ext, err := value.NewSchema(cols...)
	if err != nil {
		return err
	}
	ns := &naiveSub{
		id: id, table: strings.ToLower(t.Name), q: q,
		ext: ext, joins: joins, baseN: t.Schema.Len(),
	}
	if len(q.Select) == 0 {
		for i := 0; i < t.Schema.Len(); i++ {
			ns.sel = append(ns.sel, i)
			ns.cols = append(ns.cols, t.Schema.Col(i).Name)
		}
	} else {
		for _, c := range q.Select {
			ord := ext.Ordinal(c)
			if ord < 0 {
				return fmt.Errorf("standing: %w: unknown column %q", qerr.ErrUnsupportedQuery, c)
			}
			ns.sel = append(ns.sel, ord)
			name := ext.Col(ord).Name
			if ord < ns.baseN {
				ns.cols = append(ns.cols, name)
			} else {
				ns.cols = append(ns.cols, strings.ToLower(c))
			}
		}
	}
	m.subs = append(m.subs, ns)
	return nil
}

// Matches evaluates every subscription over one committed row and
// returns the matches in registration order.
func (m *naiveMatcher) Matches(table string, row value.Tuple) []naiveMatch {
	var out []naiveMatch
	key := strings.ToLower(table)
	for _, ns := range m.subs {
		if ns.table != key {
			continue
		}
		ext := make(value.Tuple, ns.ext.Len())
		copy(ext, row)
		for _, j := range ns.joins {
			ext[j.out] = j.binding.Predict(row)
			m.ModelCalls++
		}
		if !ns.q.Where.Eval(ns.ext, ext) {
			continue
		}
		proj := make(value.Tuple, len(ns.sel))
		for i, ord := range ns.sel {
			proj[i] = ext[ord]
		}
		out = append(out, naiveMatch{SubID: ns.id, Columns: ns.cols, Row: proj})
	}
	return out
}

// Package nbayes implements the discrete naive Bayes classifier of
// Section 3.2.1 of the paper: per-class priors Pr(c_k) and per-attribute
// conditional probabilities Pr(x_d = m | c_k) over enumerated attribute
// domains, with prediction by argmax of the product (computed as a log
// sum) and ties resolved toward the larger prior. The trained parameter
// tables are exactly the inputs the upper-envelope algorithms in
// internal/core consume.
package nbayes

import (
	"fmt"
	"math"
	"sort"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// Model is a trained discrete naive Bayes classifier.
type Model struct {
	name    string
	predCol string
	cols    []string
	classes []value.Value

	// Domains[d] lists the members of attribute d, sorted by
	// value.Compare.
	Domains [][]value.Value
	// Priors[k] is Pr(c_k).
	Priors []float64
	// Cond[d][l][k] is Pr(m_ld | c_k), Laplace-smoothed.
	Cond [][][]float64
	// Floor[d][k] is the smoothed probability assigned to attribute
	// values never seen with class k during training (used when a test
	// value is outside the trained domain).
	Floor [][]float64
}

// Options tunes training.
type Options struct {
	// Laplace is the additive smoothing constant (default 1).
	Laplace float64
}

// Train fits a naive Bayes model. All attributes are treated as
// discrete; continuous attributes should be discretized first.
func Train(name, predCol string, ts *mining.TrainSet, opts Options) (*Model, error) {
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("nbayes: %w", err)
	}
	c := NewCounts(ts.Schema.Len())
	for i, r := range ts.Rows {
		c.Add(r, ts.Labels[i])
	}
	return c.Model(name, predCol, ts.ColumnNames(), opts)
}

// TrainColumns fits a naive Bayes model over a train set's columns,
// feeding Counts each row as Column.Value reads it back.
func TrainColumns(name, predCol string, cs *mining.Columns, opts Options) (*Model, error) {
	c := NewCounts(len(cs.Cols))
	in := make(value.Tuple, len(cs.Cols))
	for i, id := range cs.Labels {
		for d := range cs.Cols {
			in[d] = cs.Cols[d].Value(i)
		}
		c.Add(in, cs.Classes[id])
	}
	return c.Model(name, predCol, cs.ColumnNames(), opts)
}

// Counts is naive Bayes training as one counting pass: Add each training
// row, then Model turns the counts into the parameter tables. A model is
// a contingency table of (attribute, member, class) counts, so the rows
// need not be kept; Add keeps no reference to its input tuple.
//
// Classes and members are keyed by mining.Interner, in first-seen order.
// A class is represented by the first label seen of it, a member by the
// last value seen of it; Model ranks both by value.Compare.
type Counts struct {
	rows       int
	classes    mining.Interner
	labels     []value.Value // labels[id]: the first label of class id
	classCount []float64     // classCount[id]: rows of class id
	attrs      []attrCounts
}

// attrCounts is one attribute's share of Counts.
type attrCounts struct {
	members mining.Interner
	dom     []value.Value // dom[l]: the last value seen of member l
	// counts[l][id] is how many rows of class id have member l; it holds
	// no slot for a class id met after member l's last row.
	counts [][]float64
}

// NewCounts returns an empty accumulator over attrs input attributes.
func NewCounts(attrs int) *Counts {
	return &Counts{attrs: make([]attrCounts, attrs)}
}

// Add counts one training row: in holds its attributes, NULLs skipped.
func (c *Counts) Add(in value.Tuple, label value.Value) {
	id := c.classes.ID(label)
	if id == len(c.labels) {
		c.labels = append(c.labels, label)
		c.classCount = append(c.classCount, 0)
	}
	c.rows++
	c.classCount[id]++
	for d, v := range in {
		if v.IsNull() {
			continue
		}
		a := &c.attrs[d]
		l := a.members.ID(v)
		if l == len(a.dom) {
			a.dom = append(a.dom, v)
			a.counts = append(a.counts, nil)
		}
		a.dom[l] = v
		if n := id + 1 - len(a.counts[l]); n > 0 {
			a.counts[l] = append(a.counts[l], make([]float64, n)...)
		}
		a.counts[l][id]++
	}
}

// Model fits the model the counted rows train; cols names the
// attributes. It fails on no rows, or on an attribute with no non-null
// value.
func (c *Counts) Model(name, predCol string, cols []string, opts Options) (*Model, error) {
	if c.rows == 0 {
		return nil, fmt.Errorf("nbayes: %w", mining.ErrEmptyTrainSet)
	}
	if opts.Laplace <= 0 {
		opts.Laplace = 1
	}
	classes, rank := sortedByCompare(c.labels)
	n := len(c.attrs)
	m := &Model{
		name:    name,
		predCol: predCol,
		cols:    cols,
		classes: classes,
		Domains: make([][]value.Value, n),
		Priors:  make([]float64, len(classes)),
		Cond:    make([][][]float64, n),
		Floor:   make([][]float64, n),
	}
	// Renumber the counts from first-seen ids to Compare ranks.
	classCount := make([]float64, len(classes))
	for id, k := range rank {
		classCount[k] = c.classCount[id]
	}
	counts := make([][][]float64, n)
	for d := range c.attrs {
		a := &c.attrs[d]
		if len(a.dom) == 0 {
			return nil, fmt.Errorf("nbayes: attribute %s has no non-null values", cols[d])
		}
		var memberRank []int
		m.Domains[d], memberRank = sortedByCompare(a.dom)
		counts[d] = make([][]float64, len(memberRank))
		for l, byID := range a.counts {
			byRank := make([]float64, len(classes))
			for id, x := range byID {
				byRank[rank[id]] = x
			}
			counts[d][memberRank[l]] = byRank
		}
	}
	total := float64(c.rows)
	minCount := classCount[0]
	for k := range classes {
		m.Priors[k] = classCount[k] / total
		if classCount[k] < minCount {
			minCount = classCount[k]
		}
	}
	for d := 0; d < n; d++ {
		nd := float64(len(m.Domains[d]))
		m.Cond[d] = make([][]float64, len(m.Domains[d]))
		m.Floor[d] = make([]float64, len(classes))
		// Probability clipping: every class shares the floor of the
		// rarest class. Without this, a rare class's fatter Laplace
		// floor (α/(N_c + α·n_d) grows as N_c shrinks) makes it win any
		// cell holding a couple of values unseen in the common classes'
		// larger training samples — a well-known small-sample naive
		// Bayes artifact that would scatter spurious prediction regions
		// across the whole attribute space.
		floor := opts.Laplace / (minCount + opts.Laplace*nd)
		for k := range classes {
			m.Floor[d][k] = floor
		}
		for l := range m.Domains[d] {
			m.Cond[d][l] = make([]float64, len(classes))
			for k := range classes {
				p := (counts[d][l][k] + opts.Laplace) / (classCount[k] + opts.Laplace*nd)
				if p < floor {
					p = floor
				}
				m.Cond[d][l][k] = p
			}
		}
	}
	return m, nil
}

// sortedByCompare returns vs sorted by value.Compare, and the position
// rank[i] that vs[i] takes there.
func sortedByCompare(vs []value.Value) (sorted []value.Value, rank []int) {
	order := make([]int, len(vs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return value.Compare(vs[order[i]], vs[order[j]]) < 0 })
	sorted, rank = make([]value.Value, len(vs)), make([]int, len(vs))
	for p, i := range order {
		sorted[p], rank[i] = vs[i], p
	}
	return sorted, rank
}

// Name implements mining.Model.
func (m *Model) Name() string { return m.name }

// PredictColumn implements mining.Model.
func (m *Model) PredictColumn() string { return m.predCol }

// InputColumns implements mining.Model.
func (m *Model) InputColumns() []string { return m.cols }

// Classes implements mining.Model.
func (m *Model) Classes() []value.Value { return m.classes }

// MemberIndex locates v in attribute d's domain, or -1 if absent.
func (m *Model) MemberIndex(d int, v value.Value) int {
	dom := m.Domains[d]
	i := sort.Search(len(dom), func(i int) bool { return value.Compare(dom[i], v) >= 0 })
	if i < len(dom) && value.Equal(dom[i], v) {
		return i
	}
	return -1
}

// Predict implements mining.Model: argmax_k Pr(c_k) Π_d Pr(x_d|c_k),
// computed in the log domain, with ties resolved toward the class with
// the larger prior (the paper's tie rule). It reads every input, so a
// NULL input predicts NULL.
func (m *Model) Predict(in value.Tuple) value.Value {
	if mining.AnyNull(in) {
		return value.Null()
	}
	best, bestScore := -1, math.Inf(-1)
	for k := range m.classes {
		s := math.Log(m.Priors[k])
		for d := range m.Domains {
			p := m.Floor[d][k]
			if l := m.MemberIndex(d, in[d]); l >= 0 {
				p = m.Cond[d][l][k]
			}
			s += math.Log(p)
		}
		switch {
		case best < 0 || s > bestScore:
			best, bestScore = k, s
		case s == bestScore && m.Priors[k] > m.Priors[best]:
			best = k
		}
	}
	return m.classes[best]
}

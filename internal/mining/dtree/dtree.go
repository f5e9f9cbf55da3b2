// Package dtree implements a C4.5-style decision-tree inducer
// (entropy-driven binary splits: "x <= t" on numeric attributes,
// "x = v" on categorical attributes) and its predictor. The tree's
// internal test structure is exported so internal/core can extract the
// paper's exact upper envelopes by ANDing root-to-leaf test conditions
// (Section 3.1).
package dtree

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// SplitKind distinguishes the two test forms at internal nodes.
type SplitKind uint8

// Split kinds.
const (
	// SplitNumeric tests "attr <= Threshold".
	SplitNumeric SplitKind = iota
	// SplitCategorical tests "attr = CatVal".
	SplitCategorical
)

// Node is one tree node. For internal nodes, True is taken when the test
// holds and False otherwise.
type Node struct {
	Leaf  bool
	Class value.Value // leaf label

	Attr      string // internal: tested attribute
	AttrIdx   int
	Kind      SplitKind
	Threshold float64     // SplitNumeric
	CatVal    value.Value // SplitCategorical
	True      *Node
	False     *Node
}

// Test evaluates the node's condition on an input tuple. A numeric test
// orders as value.Compare does, like the envelope's `attr <= Threshold`,
// so a NaN input takes the branch its envelope admits it to.
func (n *Node) Test(in value.Tuple) bool {
	v := in[n.AttrIdx]
	if v.IsNull() {
		return false
	}
	switch n.Kind {
	case SplitNumeric:
		return cmp.Compare(v.AsFloat(), n.Threshold) <= 0
	case SplitCategorical:
		return value.Equal(v, n.CatVal)
	}
	return false
}

// Model is a trained decision tree.
type Model struct {
	name    string
	predCol string
	cols    []string
	classes []value.Value
	Root    *Node
}

// Options tunes training.
type Options struct {
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// MinLeaf is the minimum number of rows in a leaf (default 2).
	MinLeaf int
}

func (o *Options) fill() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 12
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
}

// Train fits a decision tree.
func Train(name, predCol string, ts *mining.TrainSet, opts Options) (*Model, error) {
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("dtree: %w", err)
	}
	opts.fill()
	ids, classes := ts.ClassIDs()
	b := &builder{ts: ts, opts: opts, ids: ids,
		trueCounts: make([]int, len(classes)), falseCounts: make([]int, len(classes))}
	sort.Slice(classes, func(i, j int) bool { return value.Compare(classes[i], classes[j]) < 0 })
	idx := make([]int, len(ts.Rows))
	for i := range idx {
		idx[i] = i
	}
	root := b.grow(idx, 0)
	return &Model{
		name:    name,
		predCol: predCol,
		cols:    ts.ColumnNames(),
		classes: classes,
		Root:    root,
	}, nil
}

type builder struct {
	ts   *mining.TrainSet
	opts Options
	// ids is the dense class id of every row's label (TrainSet.ClassIDs):
	// label counts are slices indexed by it, and entropy sums in id order.
	ids []int
	// trueCounts and falseCounts are gain's scratch, one slot per class.
	trueCounts, falseCounts []int
}

// classCounts tallies labels for the given row subset and reports how
// many classes occur in it.
func (b *builder) classCounts(idx []int) (counts []int, distinct int) {
	counts = make([]int, len(b.trueCounts))
	for _, i := range idx {
		if counts[b.ids[i]]++; counts[b.ids[i]] == 1 {
			distinct++
		}
	}
	return counts, distinct
}

func (b *builder) majority(idx []int) value.Value {
	counts := make([]int, len(b.trueCounts))
	var best value.Value
	bestN := -1
	for _, i := range idx {
		counts[b.ids[i]]++
		if n := counts[b.ids[i]]; n > bestN {
			best, bestN = b.ts.Labels[i], n
		}
	}
	return best
}

func entropyOf(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	for _, n := range counts {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// grow builds the subtree for the row subset idx.
func (b *builder) grow(idx []int, depth int) *Node {
	counts, distinct := b.classCounts(idx)
	if distinct == 1 || depth >= b.opts.MaxDepth || len(idx) < 2*b.opts.MinLeaf {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	base := entropyOf(counts, len(idx))
	best := b.bestSplit(idx, base)
	if best == nil {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	var trueIdx, falseIdx []int
	for _, i := range idx {
		if best.Test(b.ts.Rows[i]) {
			trueIdx = append(trueIdx, i)
		} else {
			falseIdx = append(falseIdx, i)
		}
	}
	if len(trueIdx) < b.opts.MinLeaf || len(falseIdx) < b.opts.MinLeaf {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	best.True = b.grow(trueIdx, depth+1)
	best.False = b.grow(falseIdx, depth+1)
	return best
}

// bestSplit searches all attributes for the highest-gain binary split.
func (b *builder) bestSplit(idx []int, base float64) *Node {
	var best *Node
	bestGain := 1e-9 // require strictly positive gain
	for d := 0; d < b.ts.Schema.Len(); d++ {
		kind := b.ts.Schema.Col(d).Kind
		var cands []*Node
		if kind == value.KindInt || kind == value.KindFloat {
			cands = b.numericCandidates(idx, d)
		} else {
			cands = b.categoricalCandidates(idx, d)
		}
		for _, c := range cands {
			gain := b.gain(idx, c, base)
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
	}
	return best
}

// maxNumericCandidates caps threshold candidates per attribute.
const maxNumericCandidates = 32

func (b *builder) numericCandidates(idx []int, d int) []*Node {
	vals := make([]float64, 0, len(idx))
	for _, i := range idx {
		v := b.ts.Rows[i][d]
		if !v.IsNull() {
			vals = append(vals, v.AsFloat())
		}
	}
	if len(vals) < 2 {
		return nil
	}
	sort.Float64s(vals)
	var cuts []float64
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			cuts = append(cuts, (vals[i]+vals[i-1])/2)
		}
	}
	if len(cuts) == 0 {
		return nil
	}
	if len(cuts) > maxNumericCandidates {
		step := len(cuts) / maxNumericCandidates
		var sampled []float64
		for i := 0; i < len(cuts); i += step {
			sampled = append(sampled, cuts[i])
		}
		cuts = sampled
	}
	out := make([]*Node, len(cuts))
	for i, c := range cuts {
		out[i] = &Node{Attr: b.ts.Schema.Col(d).Name, AttrIdx: d, Kind: SplitNumeric, Threshold: c}
	}
	return out
}

func (b *builder) categoricalCandidates(idx []int, d int) []*Node {
	seen := map[string]value.Value{}
	for _, i := range idx {
		v := b.ts.Rows[i][d]
		if !v.IsNull() {
			seen[v.String()] = v
		}
	}
	if len(seen) < 2 {
		return nil
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Node, 0, len(keys))
	for _, k := range keys {
		out = append(out, &Node{Attr: b.ts.Schema.Col(d).Name, AttrIdx: d, Kind: SplitCategorical, CatVal: seen[k]})
	}
	return out
}

func (b *builder) gain(idx []int, split *Node, base float64) float64 {
	tc, fc := b.trueCounts, b.falseCounts
	clear(tc)
	clear(fc)
	tn, fn := 0, 0
	for _, i := range idx {
		if split.Test(b.ts.Rows[i]) {
			tc[b.ids[i]]++
			tn++
		} else {
			fc[b.ids[i]]++
			fn++
		}
	}
	if tn == 0 || fn == 0 {
		return 0
	}
	total := float64(tn + fn)
	after := float64(tn)/total*entropyOf(tc, tn) + float64(fn)/total*entropyOf(fc, fn)
	return base - after
}

// Name implements mining.Model.
func (m *Model) Name() string { return m.name }

// PredictColumn implements mining.Model.
func (m *Model) PredictColumn() string { return m.predCol }

// InputColumns implements mining.Model.
func (m *Model) InputColumns() []string { return m.cols }

// Classes implements mining.Model.
func (m *Model) Classes() []value.Value { return m.classes }

// Predict implements mining.Model by walking the tree.
func (m *Model) Predict(in value.Tuple) value.Value {
	n := m.Root
	for !n.Leaf {
		if n.Test(in) {
			n = n.True
		} else {
			n = n.False
		}
	}
	return n.Class
}

// Depth returns the tree's depth (leaves count 1).
func (m *Model) Depth() int { return depth(m.Root) }

func depth(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	dt, df := depth(n.True), depth(n.False)
	if df > dt {
		dt = df
	}
	return dt + 1
}

// LeafCount returns the number of leaves.
func (m *Model) LeafCount() int { return leaves(m.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return leaves(n.True) + leaves(n.False)
}

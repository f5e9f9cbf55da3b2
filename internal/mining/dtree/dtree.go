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
	"slices"
	"sort"
	"strings"

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
	if len(ts.Rows) > math.MaxInt32 {
		return nil, fmt.Errorf("dtree: %d rows, at most %d", len(ts.Rows), math.MaxInt32)
	}
	opts.fill()
	ids, classes := ts.ClassIDs()
	b := &builder{ts: ts, opts: opts, ids: ids, members: make([]mining.Interner, ts.Schema.Len()),
		counts: make([]int, len(classes)), trueCounts: make([]int, len(classes)), falseCounts: make([]int, len(classes))}
	sort.Slice(classes, func(i, j int) bool { return value.Compare(classes[i], classes[j]) < 0 })
	// int32 rows: the index and its spill cost one word a row together.
	idx := make([]int32, len(ts.Rows))
	for i := range idx {
		idx[i] = int32(i)
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

// builder grows a tree over one index of the train set's rows, which
// each split partitions in place. Its scratch is sized once, at the
// root, where every row is in play.
type builder struct {
	ts   *mining.TrainSet
	opts Options
	// ids is the dense class id of every row's label (TrainSet.ClassIDs):
	// label counts are slices indexed by it, and entropy sums in id order.
	ids []int
	// members keys each categorical attribute's values by rendering.
	members []mining.Interner
	// counts, trueCounts and falseCounts are per-class scratch: counts
	// for a node's rows, the other two for gain.
	counts, trueCounts, falseCounts []int
	// spill holds the false side of a partition while the true side is
	// packed to the front of the index.
	spill []int32
	// vals holds numericCandidates' values, then its cuts.
	vals []float64
	// last[id] is the last value of member id a categoricalCandidates
	// call met (NULL: not met); present and cands are its other scratch.
	last    []value.Value
	present []int
	cands   []value.Value
}

// classCounts tallies labels for the given row subset into b.counts and
// reports how many classes occur in it.
func (b *builder) classCounts(idx []int32) (distinct int) {
	clear(b.counts)
	for _, i := range idx {
		if b.counts[b.ids[i]]++; b.counts[b.ids[i]] == 1 {
			distinct++
		}
	}
	return distinct
}

// majority is the label first to reach the largest count, in idx order.
func (b *builder) majority(idx []int32) value.Value {
	clear(b.counts)
	var best value.Value
	bestN := -1
	for _, i := range idx {
		b.counts[b.ids[i]]++
		if n := b.counts[b.ids[i]]; n > bestN {
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

// grow builds the subtree for the rows idx lists. A split reorders idx:
// the rows it sends true come first, then the rest, each side in the
// order it had. A refused split leaves idx as it was.
func (b *builder) grow(idx []int32, depth int) *Node {
	distinct := b.classCounts(idx)
	if distinct == 1 || depth >= b.opts.MaxDepth || len(idx) < 2*b.opts.MinLeaf {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	base := entropyOf(b.counts, len(idx))
	best := b.bestSplit(idx, base)
	if best == nil {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	t := 0
	for _, i := range idx {
		if best.Test(b.ts.Rows[i]) {
			t++
		}
	}
	if t < b.opts.MinLeaf || len(idx)-t < b.opts.MinLeaf {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	b.partition(idx, best)
	best.True = b.grow(idx[:t], depth+1)
	best.False = b.grow(idx[t:], depth+1)
	return best
}

// partition moves the rows of idx that split sends true to its front,
// stably on both sides.
func (b *builder) partition(idx []int32, split *Node) {
	if b.spill == nil {
		b.spill = make([]int32, len(idx))
	}
	t, f := 0, 0
	for _, i := range idx {
		if split.Test(b.ts.Rows[i]) {
			idx[t], t = i, t+1
		} else {
			b.spill[f], f = i, f+1
		}
	}
	copy(idx[t:], b.spill[:f])
}

// bestSplit searches all attributes for the highest-gain binary split;
// the first of equal gains wins.
func (b *builder) bestSplit(idx []int32, base float64) *Node {
	const minGain = 1e-9 // a split must gain strictly more
	var best Node
	bestGain := minGain
	for d := 0; d < b.ts.Schema.Len(); d++ {
		col := b.ts.Schema.Col(d)
		c := Node{Attr: col.Name, AttrIdx: d}
		if col.Kind == value.KindInt || col.Kind == value.KindFloat {
			c.Kind = SplitNumeric
			for _, cut := range b.numericCandidates(idx, d) {
				c.Threshold = cut
				if gain := b.gain(idx, &c, base); gain > bestGain {
					best, bestGain = c, gain
				}
			}
		} else {
			c.Kind = SplitCategorical
			for _, v := range b.categoricalCandidates(idx, d) {
				c.CatVal = v
				if gain := b.gain(idx, &c, base); gain > bestGain {
					best, bestGain = c, gain
				}
			}
		}
	}
	if bestGain == minGain {
		return nil
	}
	n := best
	return &n
}

// maxNumericCandidates caps threshold candidates per attribute.
const maxNumericCandidates = 32

// numericCandidates returns the thresholds to try on numeric attribute
// d: the midpoints between neighbouring distinct values, thinned to
// about maxNumericCandidates. They live in b.vals until the next call.
func (b *builder) numericCandidates(idx []int32, d int) []float64 {
	if cap(b.vals) < len(idx) {
		b.vals = make([]float64, 0, len(idx))
	}
	vals := b.vals[:0]
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
	// Cut j overwrites vals[j], which no later cut reads: j < i.
	cuts := vals[:0]
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			cuts = append(cuts, (vals[i]+vals[i-1])/2)
		}
	}
	if len(cuts) > maxNumericCandidates {
		step, k := len(cuts)/maxNumericCandidates, 0
		for i := 0; i < len(cuts); i += step {
			cuts[k], k = cuts[i], k+1
		}
		cuts = cuts[:k]
	}
	return cuts
}

// categoricalCandidates returns the members of attribute d among idx's
// rows, sorted by rendering, each the last value seen that renders so.
// They live in b.cands until the next call.
func (b *builder) categoricalCandidates(idx []int32, d int) []value.Value {
	in := &b.members[d]
	present := b.present[:0]
	for _, i := range idx {
		v := b.ts.Rows[i][d]
		if v.IsNull() {
			continue
		}
		id := in.ID(v)
		if id >= len(b.last) {
			b.last = append(b.last, make([]value.Value, id+1-len(b.last))...)
		}
		if b.last[id].IsNull() {
			present = append(present, id)
		}
		b.last[id] = v
	}
	slices.SortFunc(present, func(x, y int) int { return strings.Compare(in.Text(x), in.Text(y)) })
	cands := b.cands[:0]
	for _, id := range present {
		cands = append(cands, b.last[id])
		b.last[id] = value.Value{}
	}
	b.present, b.cands = present, cands
	if len(cands) < 2 {
		return nil
	}
	return cands
}

func (b *builder) gain(idx []int32, split *Node, base float64) float64 {
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

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

// Train fits a decision tree over a literal train set, converted to its
// columns.
func Train(name, predCol string, ts *mining.TrainSet, opts Options) (*Model, error) {
	cs, err := ts.Columns()
	if err != nil {
		return nil, fmt.Errorf("dtree: %w", err)
	}
	return TrainColumns(name, predCol, cs, opts)
}

// TrainColumns fits a decision tree.
func TrainColumns(name, predCol string, cs *mining.Columns, opts Options) (*Model, error) {
	if cs.Len() == 0 {
		return nil, fmt.Errorf("dtree: %w", mining.ErrEmptyTrainSet)
	}
	if cs.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("dtree: %d rows, at most %d", cs.Len(), math.MaxInt32)
	}
	opts.fill()
	k := len(cs.Classes)
	b := &builder{cs: cs, opts: opts, members: cs.Members(),
		counts: make([]int, k), trueCounts: make([]int, k), falseCounts: make([]int, k)}
	classes := slices.Clone(cs.Classes)
	sort.Slice(classes, func(i, j int) bool { return value.Compare(classes[i], classes[j]) < 0 })
	// int32 rows: the index and its spill cost one word a row together.
	idx := make([]int32, cs.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	root := b.grow(idx, 0)
	return &Model{
		name:    name,
		predCol: predCol,
		cols:    cs.ColumnNames(),
		classes: classes,
		Root:    root,
	}, nil
}

// builder grows a tree over one index of the train set's rows, which
// each split partitions in place. Its scratch is sized once, at the
// root, where every row is in play.
type builder struct {
	cs   *mining.Columns
	opts Options
	// members[d] numbers categorical attribute d's members.
	members []mining.Members
	// counts, trueCounts and falseCounts are per-class scratch: counts
	// for a node's rows, the other two for gain.
	counts, trueCounts, falseCounts []int
	// spill holds the false side of a partition while the true side is
	// packed to the front of the index.
	spill []int32
	// vals holds numericCandidates' values, then its cuts.
	vals []float64
	// last[m] is the last member of rendering m a categoricalCandidates
	// call met (NullCode: not met); present and cands are its other
	// scratch.
	last, present, cands []int32
}

// split is a candidate test: the node it becomes, and for a categorical
// test the Equal id of CatVal's member.
type split struct {
	Node
	eq int32
}

// sends reports whether s sends row i to its true side: Node.Test over
// the row's column cells.
func (b *builder) sends(s *split, i int32) bool {
	c := &b.cs.Cols[s.AttrIdx]
	if s.Kind == SplitNumeric {
		return !c.IsNull(int(i)) && cmp.Compare(c.Num[i], s.Threshold) <= 0
	}
	code := c.Codes[i]
	return code != mining.NullCode && b.members[s.AttrIdx].Equal[code] == s.eq
}

// classCounts tallies labels for the given row subset into b.counts and
// reports how many classes occur in it.
func (b *builder) classCounts(idx []int32) (distinct int) {
	clear(b.counts)
	for _, i := range idx {
		if b.counts[b.cs.Labels[i]]++; b.counts[b.cs.Labels[i]] == 1 {
			distinct++
		}
	}
	return distinct
}

// majority is the class first to reach the largest count, in idx order,
// as the first label seen of it.
func (b *builder) majority(idx []int32) value.Value {
	clear(b.counts)
	var best int32
	bestN := -1
	for _, i := range idx {
		id := b.cs.Labels[i]
		b.counts[id]++
		if n := b.counts[id]; n > bestN {
			best, bestN = id, n
		}
	}
	return b.cs.Classes[best]
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
	best, ok := b.bestSplit(idx, base)
	if !ok {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	t := 0
	for _, i := range idx {
		if b.sends(&best, i) {
			t++
		}
	}
	if t < b.opts.MinLeaf || len(idx)-t < b.opts.MinLeaf {
		return &Node{Leaf: true, Class: b.majority(idx)}
	}
	b.partition(idx, &best)
	n := best.Node
	n.True = b.grow(idx[:t], depth+1)
	n.False = b.grow(idx[t:], depth+1)
	return &n
}

// partition moves the rows of idx that s sends true to its front,
// stably on both sides.
func (b *builder) partition(idx []int32, s *split) {
	if b.spill == nil {
		b.spill = make([]int32, len(idx))
	}
	t, f := 0, 0
	for _, i := range idx {
		if b.sends(s, i) {
			idx[t], t = i, t+1
		} else {
			b.spill[f], f = i, f+1
		}
	}
	copy(idx[t:], b.spill[:f])
}

// bestSplit searches all attributes for the highest-gain binary split;
// the first of equal gains wins.
func (b *builder) bestSplit(idx []int32, base float64) (split, bool) {
	const minGain = 1e-9 // a split must gain strictly more
	var best split
	bestGain := minGain
	for d := 0; d < b.cs.Schema.Len(); d++ {
		c := split{Node: Node{Attr: b.cs.Schema.Col(d).Name, AttrIdx: d}}
		if b.cs.Cols[d].Numeric {
			c.Kind = SplitNumeric
			for _, cut := range b.numericCandidates(idx, d) {
				c.Threshold = cut
				if gain := b.gain(idx, &c, base); gain > bestGain {
					best, bestGain = c, gain
				}
			}
		} else {
			c.Kind = SplitCategorical
			for _, code := range b.categoricalCandidates(idx, d) {
				c.CatVal, c.eq = b.cs.Cols[d].Dict[code], b.members[d].Equal[code]
				if gain := b.gain(idx, &c, base); gain > bestGain {
					best, bestGain = c, gain
				}
			}
		}
	}
	return best, bestGain != minGain
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
	c := &b.cs.Cols[d]
	vals := b.vals[:0]
	for _, i := range idx {
		if !c.IsNull(int(i)) {
			vals = append(vals, c.Num[i])
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
// rows, sorted by rendering, each the last member seen that renders so.
// They live in b.cands until the next call.
func (b *builder) categoricalCandidates(idx []int32, d int) []int32 {
	codes, rendering, texts := b.cs.Cols[d].Codes, b.members[d].Rendering, b.members[d].Text
	for len(b.last) < len(texts) {
		b.last = append(b.last, mining.NullCode)
	}
	present := b.present[:0]
	for _, i := range idx {
		code := codes[i]
		if code == mining.NullCode {
			continue
		}
		m := rendering[code]
		if b.last[m] == mining.NullCode {
			present = append(present, m)
		}
		b.last[m] = code
	}
	slices.SortFunc(present, func(x, y int32) int { return strings.Compare(texts[x], texts[y]) })
	cands := b.cands[:0]
	for _, m := range present {
		cands = append(cands, b.last[m])
		b.last[m] = mining.NullCode
	}
	b.present, b.cands = present, cands
	if len(cands) < 2 {
		return nil
	}
	return cands
}

func (b *builder) gain(idx []int32, s *split, base float64) float64 {
	tc, fc := b.trueCounts, b.falseCounts
	clear(tc)
	clear(fc)
	tn, fn := 0, 0
	for _, i := range idx {
		if b.sends(s, i) {
			tc[b.cs.Labels[i]]++
			tn++
		} else {
			fc[b.cs.Labels[i]]++
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

// Predict implements mining.Model by walking the tree. A path that
// reaches a split on a NULL attribute predicts NULL; a NULL the path
// never tests does not change its leaf.
func (m *Model) Predict(in value.Tuple) value.Value {
	n := m.Root
	for !n.Leaf {
		if in[n.AttrIdx].IsNull() {
			return value.Null()
		}
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

package dtree

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

// refBuilder is the inducer as it was before the index was partitioned
// in place: every node appends its rows to fresh true and false slices,
// every candidate is a *Node, and categorical members are keyed by
// Value.String. It reads the rows of a literal TrainSet. It is the oracle
// TestTrainMatchesAppendPartition and TestTrainColumnsMatchesRows hold
// Train to.
//
// One thing differs from the builder as it was: a leaf's class is the
// first label seen of its class in the train set, not the label of the
// row whose vote first reached the majority. The two differ only between
// labels that render alike but differ as values (an INT 1 and a FLOAT 1,
// or two NaN payloads), and the first label seen is the value Classes()
// lists.
type refBuilder struct {
	ts                      *mining.TrainSet
	opts                    Options
	ids                     []int
	classes                 []value.Value
	trueCounts, falseCounts []int
}

// classIDs interns labels by rendering: ids[i] is label i's class and
// classes[id] the first label seen of class id.
func classIDs(labels []value.Value) (ids []int, classes []value.Value) {
	var in mining.Interner
	ids = make([]int, len(labels))
	for i, l := range labels {
		if ids[i] = in.ID(l); ids[i] == len(classes) {
			classes = append(classes, l)
		}
	}
	return ids, classes
}

func refTrain(ts *mining.TrainSet, opts Options) *Node {
	opts.fill()
	ids, classes := classIDs(ts.Labels)
	b := &refBuilder{ts: ts, opts: opts, ids: ids, classes: classes,
		trueCounts: make([]int, len(classes)), falseCounts: make([]int, len(classes))}
	idx := make([]int, len(ts.Rows))
	for i := range idx {
		idx[i] = i
	}
	return b.grow(idx, 0)
}

func (b *refBuilder) classCounts(idx []int) (counts []int, distinct int) {
	counts = make([]int, len(b.trueCounts))
	for _, i := range idx {
		if counts[b.ids[i]]++; counts[b.ids[i]] == 1 {
			distinct++
		}
	}
	return counts, distinct
}

func (b *refBuilder) majority(idx []int) value.Value {
	counts := make([]int, len(b.trueCounts))
	var best value.Value
	bestN := -1
	for _, i := range idx {
		counts[b.ids[i]]++
		if n := counts[b.ids[i]]; n > bestN {
			best, bestN = b.classes[b.ids[i]], n
		}
	}
	return best
}

func (b *refBuilder) grow(idx []int, depth int) *Node {
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

func (b *refBuilder) bestSplit(idx []int, base float64) *Node {
	var best *Node
	bestGain := 1e-9
	for d := 0; d < b.ts.Schema.Len(); d++ {
		kind := b.ts.Schema.Col(d).Kind
		var cands []*Node
		if kind == value.KindInt || kind == value.KindFloat {
			cands = b.numericCandidates(idx, d)
		} else {
			cands = b.categoricalCandidates(idx, d)
		}
		for _, c := range cands {
			if gain := b.gain(idx, c, base); gain > bestGain {
				best, bestGain = c, gain
			}
		}
	}
	return best
}

func (b *refBuilder) numericCandidates(idx []int, d int) []*Node {
	vals := make([]float64, 0, len(idx))
	for _, i := range idx {
		if v := b.ts.Rows[i][d]; !v.IsNull() {
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

func (b *refBuilder) categoricalCandidates(idx []int, d int) []*Node {
	seen := map[string]value.Value{}
	for _, i := range idx {
		if v := b.ts.Rows[i][d]; !v.IsNull() {
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

func (b *refBuilder) gain(idx []int, split *Node, base float64) float64 {
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

// sameTree reports where two trees first differ ("" when identical): a
// Value compares by ==, so a FLOAT's bits, and a threshold by its bits.
func sameTree(got, want *Node, path string) string {
	switch {
	case got.Leaf != want.Leaf:
		return path + ": leaf/internal"
	case got.Leaf:
		if got.Class != want.Class {
			return path + ": leaf class " + got.Class.String() + " (" + got.Class.Kind().String() + "), want " +
				want.Class.String() + " (" + want.Class.Kind().String() + ")"
		}
		return ""
	case got.Attr != want.Attr || got.AttrIdx != want.AttrIdx || got.Kind != want.Kind ||
		math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.CatVal != want.CatVal:
		return path + ": split differs"
	}
	if d := sameTree(got.True, want.True, path+"T"); d != "" {
		return d
	}
	return sameTree(got.False, want.False, path+"F")
}

// mixedTrainSet draws rows over a FLOAT attribute with duplicates, NaN,
// -0 and 0, an INT attribute with few values, and a TEXT attribute whose
// members include values that render alike (INT 2, FLOAT 2) and a
// second spelling of one string, each with NULLs. Labels are a noisy
// function of the attributes over a pool where INT 1 and FLOAT 1 are one
// class, so majorities tie and take the first label to reach the count.
func mixedTrainSet(r *rand.Rand, n int) *mining.TrainSet {
	nan2 := math.Float64frombits(0x7ff8000000000bad)
	floats := []value.Value{value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(nan2),
		value.Float(1.5), value.Float(2.5), value.Float(2.5), value.Float(7), value.Int(3), value.Null()}
	cats := []value.Value{value.Str("a"), value.Str("b"), value.Str("c"), value.Int(2), value.Float(2), value.Null()}
	labels := []value.Value{value.Int(1), value.Float(1), value.Str("x"), value.Str("y")}
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "f", Kind: value.KindFloat},
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "c", Kind: value.KindString},
	)}
	for k := 0; k < n; k++ {
		f := floats[r.Intn(len(floats))]
		if r.Intn(3) == 0 {
			f = value.Float(float64(r.Intn(40)) / 4)
		}
		i := value.Int(int64(r.Intn(6)))
		if r.Intn(10) == 0 {
			i = value.Null()
		}
		c := cats[r.Intn(len(cats))]
		label := labels[r.Intn(len(labels))]
		if r.Intn(4) != 0 {
			switch {
			case c == value.Str("a"):
				label = labels[2]
			case !f.IsNull() && f.AsFloat() > 2:
				label = labels[r.Intn(2)]
			case !i.IsNull() && i.AsInt() < 2:
				label = labels[3]
			}
		}
		ts.Rows = append(ts.Rows, value.Tuple{f, i, c})
		ts.Labels = append(ts.Labels, label)
	}
	return ts
}

// TestTrainMatchesAppendPartition: partitioning one index in place grows
// the tree the append-based builder grows, over duplicates, NaN and -0,
// values that render alike, NULLs, MinLeaf refusals and majority ties.
func TestTrainMatchesAppendPartition(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts := mixedTrainSet(r, 5+r.Intn(600))
		for _, opts := range []Options{{}, {MinLeaf: 1}, {MinLeaf: 7}, {MinLeaf: 40, MaxDepth: 4}, {MaxDepth: 2}} {
			m, err := Train("m", "c", ts, opts)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opts, err)
			}
			if d := sameTree(m.Root, refTrain(ts, opts), "root"); d != "" {
				t.Fatalf("seed %d %+v: %s", seed, opts, d)
			}
		}
	}
	// The paper's concept at a size with many numeric cuts per node.
	ts := bpTrainSet(3000, 9)
	m, err := Train("bp", "risk", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameTree(m.Root, refTrain(ts, Options{}), "root"); d != "" {
		t.Fatal(d)
	}
}

// TestAllocTreeTrainPartitionsInPlace: training over a set's columns
// allocates two words a row — the index and its partition scratch (4
// bytes each), the numeric values buffer — plus a node per tree node, on
// one P with GC off. The columns themselves are the caller's.
func TestAllocTreeTrainPartitionsInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const perNode = unsafe.Sizeof(Node{})
	const fixed = 16 << 10 // member numberings, class lists, column names
	for _, rows := range []int{2000, 20000} {
		cs, err := mixedTrainSet(rand.New(rand.NewSource(1)), rows).Columns()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := TrainColumns("m", "c", cs, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		nodes := uint64(2*m.LeafCount() - 1)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d rows, %d nodes: %d B, %.1f B a row beyond the nodes", rows, nodes, got, float64(got-nodes*uint64(perNode))/float64(rows))
		if bound := uint64(rows)*2*8 + nodes*uint64(perNode) + fixed; got > bound {
			t.Errorf("%d rows, %d nodes: TrainColumns allocated %d B, bound %d (%.1f B a row beyond the nodes)",
				rows, nodes, got, bound, float64(got-nodes*uint64(perNode))/float64(rows))
		}
	}
}

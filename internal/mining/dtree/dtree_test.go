package dtree

import (
	"math/rand"
	"testing"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// bpTrainSet synthesizes data matching the paper's Figure 1 tree:
// classes determined by lower BP, age, overweight, upper BP.
func bpTrainSet(n int, seed int64) *mining.TrainSet {
	r := rand.New(rand.NewSource(seed))
	schema := value.MustSchema(
		value.Column{Name: "lower_bp", Kind: value.KindFloat},
		value.Column{Name: "age", Kind: value.KindFloat},
		value.Column{Name: "overweight", Kind: value.KindString},
		value.Column{Name: "upper_bp", Kind: value.KindFloat},
	)
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < n; i++ {
		lbp := float64(r.Intn(60) + 60) // 60..119
		age := float64(r.Intn(60) + 20) // 20..79
		ow := pick(r, []string{"yes", "no"})
		ubp := float64(r.Intn(80) + 90) // 90..169
		var label string
		if lbp > 91 {
			if age > 63 {
				if ow == "yes" {
					label = "c1"
				} else {
					label = "c2"
				}
			} else {
				label = "c2"
			}
		} else {
			if ubp > 130 {
				label = "c1"
			} else {
				label = "c2"
			}
		}
		ts.Rows = append(ts.Rows, value.Tuple{
			value.Float(lbp), value.Float(age), value.Str(ow), value.Float(ubp),
		})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	return ts
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func TestTrainRecoversFigure1Concept(t *testing.T) {
	ts := bpTrainSet(6000, 1)
	m, err := Train("bp", "risk", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Training accuracy should be essentially perfect: the concept is a
	// small axis-aligned tree.
	correct := 0
	for i, row := range ts.Rows {
		if value.Equal(m.Predict(row), ts.Labels[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(ts.Rows)); acc < 0.98 {
		t.Errorf("training accuracy %.3f, want >= 0.98 (depth %d, leaves %d)", acc, m.Depth(), m.LeafCount())
	}
	if len(m.Classes()) != 2 {
		t.Errorf("classes = %v", m.Classes())
	}
}

func TestHandBuiltTreePredict(t *testing.T) {
	// The paper's Figure 1 tree, built by hand.
	root := &Node{
		Attr: "lower_bp", AttrIdx: 0, Kind: SplitNumeric, Threshold: 91,
		// True branch: lower_bp <= 91.
		True: &Node{
			Attr: "upper_bp", AttrIdx: 3, Kind: SplitNumeric, Threshold: 130,
			True:  &Node{Leaf: true, Class: value.Str("c2")},
			False: &Node{Leaf: true, Class: value.Str("c1")},
		},
		False: &Node{
			Attr: "age", AttrIdx: 1, Kind: SplitNumeric, Threshold: 63,
			True: &Node{Leaf: true, Class: value.Str("c2")},
			False: &Node{
				Attr: "overweight", AttrIdx: 2, Kind: SplitCategorical, CatVal: value.Str("yes"),
				True:  &Node{Leaf: true, Class: value.Str("c1")},
				False: &Node{Leaf: true, Class: value.Str("c2")},
			},
		},
	}
	m := &Model{name: "fig1", predCol: "risk",
		cols:    []string{"lower_bp", "age", "overweight", "upper_bp"},
		classes: []value.Value{value.Str("c1"), value.Str("c2")},
		Root:    root}
	cases := []struct {
		lbp, age float64
		ow       string
		ubp      float64
		want     string
	}{
		{95, 70, "yes", 120, "c1"},
		{95, 70, "no", 120, "c2"},
		{95, 50, "yes", 120, "c2"},
		{85, 30, "no", 140, "c1"},
		{85, 30, "no", 120, "c2"},
		{91, 99, "yes", 131, "c1"}, // boundary: 91 <= 91 goes True
	}
	for _, c := range cases {
		got := m.Predict(value.Tuple{
			value.Float(c.lbp), value.Float(c.age), value.Str(c.ow), value.Float(c.ubp),
		})
		if got.AsString() != c.want {
			t.Errorf("Predict(%v) = %s, want %s", c, got, c.want)
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	ts := bpTrainSet(2000, 2)
	m, err := Train("bp", "risk", ts, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Depth() > 3 { // depth 2 of internal nodes + leaf level
		t.Errorf("depth %d exceeds bound", m.Depth())
	}
}

func TestMinLeafRespected(t *testing.T) {
	ts := bpTrainSet(500, 3)
	m, err := Train("bp", "risk", ts, Options{MinLeaf: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Count rows reaching each leaf; all must be >= MinLeaf.
	counts := map[*Node]int{}
	for _, row := range ts.Rows {
		n := m.Root
		for !n.Leaf {
			if n.Test(row) {
				n = n.True
			} else {
				n = n.False
			}
		}
		counts[n]++
	}
	for leaf, c := range counts {
		if c < 100 {
			t.Errorf("leaf %v holds %d rows, want >= 100", leaf.Class, c)
		}
	}
}

func TestPureDataYieldsSingleLeaf(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "x", Kind: value.KindInt})
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < 50; i++ {
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(int64(i))})
		ts.Labels = append(ts.Labels, value.Str("only"))
	}
	m, err := Train("pure", "c", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Root.Leaf || m.LeafCount() != 1 {
		t.Errorf("pure data should give a single leaf, got %d leaves", m.LeafCount())
	}
}

func TestCategoricalSplit(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "color", Kind: value.KindString})
	ts := &mining.TrainSet{Schema: schema}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		c := pick(r, []string{"red", "green", "blue"})
		label := "other"
		if c == "red" {
			label = "warm"
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Str(c)})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	m, err := Train("col", "c", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(value.Tuple{value.Str("red")}); got.AsString() != "warm" {
		t.Errorf("red -> %s", got)
	}
	if got := m.Predict(value.Tuple{value.Str("blue")}); got.AsString() != "other" {
		t.Errorf("blue -> %s", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train("m", "c", &mining.TrainSet{}, Options{}); err == nil {
		t.Error("empty train set should error")
	}
	schema := value.MustSchema(value.Column{Name: "x", Kind: value.KindInt})
	bad := &mining.TrainSet{
		Schema: schema,
		Rows:   []value.Tuple{{value.Int(1)}, {value.Int(2)}},
		Labels: []value.Value{value.Str("a")},
	}
	if _, err := Train("m", "c", bad, Options{}); err == nil {
		t.Error("label/row mismatch should error")
	}
}

// TestNullRoutesToFalseBranch: a path that reaches a split on a NULL
// attribute predicts NULL, as SQL's function of a NULL is; a NULL in an
// attribute the path never tests leaves its leaf's class.
func TestNullRoutesToFalseBranch(t *testing.T) {
	n := &Node{Attr: "x", AttrIdx: 0, Kind: SplitNumeric, Threshold: 5,
		True:  &Node{Leaf: true, Class: value.Str("t")},
		False: &Node{Leaf: true, Class: value.Str("f")}}
	m := &Model{Root: n, classes: []value.Value{value.Str("f"), value.Str("t")}}
	if got := m.Predict(value.Tuple{value.Null(), value.Int(1)}); !got.IsNull() {
		t.Errorf("NULL at the split should predict NULL, got %s", got)
	}
	if got := m.Predict(value.Tuple{value.Int(3), value.Null()}); got.IsNull() || got.AsString() != "t" {
		t.Errorf("NULL in an untested attribute should keep the leaf's class t, got %s", got)
	}
}

func TestMetadata(t *testing.T) {
	ts := bpTrainSet(200, 5)
	m, _ := Train("bp", "risk", ts, Options{})
	if m.Name() != "bp" || m.PredictColumn() != "risk" {
		t.Error("metadata broken")
	}
	if cols := m.InputColumns(); len(cols) != 4 || cols[0] != "lower_bp" {
		t.Errorf("InputColumns = %v", cols)
	}
}

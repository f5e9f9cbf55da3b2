package core

import (
	"math/rand"
	"strings"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/rules"
	"minequery/internal/value"
)

// figure1Model builds the paper's Figure 1 decision tree.
func figure1Model() *dtree.Model {
	root := &dtree.Node{
		Attr: "lower_bp", AttrIdx: 0, Kind: dtree.SplitNumeric, Threshold: 91,
		// In the paper the condition is "lower BP > 91"; here the node
		// tests lower_bp <= 91 with branches swapped, which is the same
		// tree.
		True: &dtree.Node{ // lower_bp <= 91
			Attr: "upper_bp", AttrIdx: 3, Kind: dtree.SplitNumeric, Threshold: 130,
			True:  &dtree.Node{Leaf: true, Class: value.Str("c2")}, // upper_bp <= 130
			False: &dtree.Node{Leaf: true, Class: value.Str("c1")}, // upper_bp > 130
		},
		False: &dtree.Node{ // lower_bp > 91
			Attr: "age", AttrIdx: 1, Kind: dtree.SplitNumeric, Threshold: 63,
			True: &dtree.Node{Leaf: true, Class: value.Str("c2")}, // age <= 63
			False: &dtree.Node{ // age > 63
				Attr: "overweight", AttrIdx: 2, Kind: dtree.SplitCategorical, CatVal: value.Str("yes"),
				True:  &dtree.Node{Leaf: true, Class: value.Str("c1")},
				False: &dtree.Node{Leaf: true, Class: value.Str("c2")},
			},
		},
	}
	return dtree.FromParts("fig1", "risk",
		[]string{"lower_bp", "age", "overweight", "upper_bp"},
		[]value.Value{value.Str("c1"), value.Str("c2")},
		root)
}

var bpSchema = value.MustSchema(
	value.Column{Name: "lower_bp", Kind: value.KindFloat},
	value.Column{Name: "age", Kind: value.KindFloat},
	value.Column{Name: "overweight", Kind: value.KindString},
	value.Column{Name: "upper_bp", Kind: value.KindFloat},
)

// TestFigure1EnvelopeExact reproduces Section 3.1's example: the
// envelope of c1 is ((lowerBP > 91) AND (age > 63) AND overweight) OR
// ((lowerBP <= 91) AND (upperBP > 130)) — and it is exact.
func TestFigure1EnvelopeExact(t *testing.T) {
	m := figure1Model()
	envC1 := TreeEnvelope(m, value.Str("c1"), 32)
	envC2 := TreeEnvelope(m, value.Str("c2"), 32)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		tup := value.Tuple{
			value.Float(60 + r.Float64()*60),
			value.Float(20 + r.Float64()*60),
			value.Str([]string{"yes", "no"}[r.Intn(2)]),
			value.Float(90 + r.Float64()*80),
		}
		pred := m.Predict(tup)
		inC1 := envC1.Eval(bpSchema, tup)
		inC2 := envC2.Eval(bpSchema, tup)
		if (pred.AsString() == "c1") != inC1 {
			t.Fatalf("c1 envelope not exact at %v (pred %v): %s", tup, pred, envC1)
		}
		if (pred.AsString() == "c2") != inC2 {
			t.Fatalf("c2 envelope not exact at %v (pred %v): %s", tup, pred, envC2)
		}
	}
	// Structural check: the c1 envelope must mention both paths.
	s := envC1.String()
	for _, frag := range []string{"lower_bp", "upper_bp", "age", "overweight"} {
		if !strings.Contains(s, frag) {
			t.Errorf("c1 envelope %q missing attribute %s", s, frag)
		}
	}
}

func TestTreeEnvelopeOnTrainedTree(t *testing.T) {
	// Train a tree and verify exactness on held-out random tuples.
	r := rand.New(rand.NewSource(2))
	schema := value.MustSchema(
		value.Column{Name: "x", Kind: value.KindFloat},
		value.Column{Name: "g", Kind: value.KindString},
	)
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < 3000; i++ {
		x := r.Float64() * 100
		grp := []string{"p", "q", "r"}[r.Intn(3)]
		label := "no"
		if x > 60 && grp != "r" {
			label = "yes"
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Float(x), value.Str(grp)})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	m, err := dtree.Train("t", "c", ts, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	envs := map[string]expr.Expr{}
	for _, c := range m.Classes() {
		envs[c.String()] = TreeEnvelope(m, c, 64)
	}
	for i := 0; i < 3000; i++ {
		tup := value.Tuple{value.Float(r.Float64() * 120), value.Str([]string{"p", "q", "r"}[r.Intn(3)])}
		pred := m.Predict(tup)
		for cs, env := range envs {
			want := pred.String() == cs
			if env.Eval(schema, tup) != want {
				t.Fatalf("envelope for %s not exact at %v (pred %v)", cs, tup, pred)
			}
		}
	}
}

func TestTreeEnvelopeAbsentClassIsFalse(t *testing.T) {
	m := figure1Model()
	env := TreeEnvelope(m, value.Str("no_such_class"), 32)
	if _, ok := env.(expr.FalseExpr); !ok {
		t.Errorf("absent class should yield FALSE, got %s", env)
	}
}

func TestRulesEnvelopeSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	schema := value.MustSchema(
		value.Column{Name: "income", Kind: value.KindFloat},
		value.Column{Name: "debt", Kind: value.KindFloat},
	)
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < 2000; i++ {
		inc, debt := r.Float64()*100, r.Float64()*50
		var label string
		switch {
		case inc < 30 && debt > 25:
			label = "reject"
		case inc < 30:
			label = "review"
		default:
			label = "approve"
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Float(inc), value.Float(debt)})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	cs, err := ts.Columns()
	if err != nil {
		t.Fatal(err)
	}
	m, err := rules.TrainColumns("loan", "d", cs, rules.Options{})
	if err != nil {
		t.Fatal(err)
	}
	envs := map[string]expr.Expr{}
	for _, c := range m.Classes() {
		envs[c.String()] = RulesEnvelope(m, c, 64)
	}
	for i := 0; i < 4000; i++ {
		tup := value.Tuple{value.Float(r.Float64() * 120), value.Float(r.Float64() * 60)}
		pred := m.Predict(tup)
		if !envs[pred.String()].Eval(schema, tup) {
			t.Fatalf("rule envelope for %v rejects a tuple predicted as it: %v", pred, tup)
		}
	}
}

func TestRulesEnvelopeDefaultClass(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "x", Kind: value.KindInt})
	m := rules.FromParts("m", "c", []string{"x"}, schema,
		[]value.Value{value.Str("a"), value.Str("b")},
		[]rules.Rule{
			{Body: []expr.Expr{expr.Cmp{Col: "x", Op: expr.OpLe, Val: value.Int(10)}}, Class: value.Str("a")},
		},
		value.Str("b"))
	envB := RulesEnvelope(m, value.Str("b"), 64)
	// x=5 fires rule a; x=20 falls to default b.
	if envB.Eval(schema, value.Tuple{value.Int(5)}) {
		t.Errorf("default-class envelope should exclude rule-a region: %s", envB)
	}
	if !envB.Eval(schema, value.Tuple{value.Int(20)}) {
		t.Errorf("default-class envelope must cover the uncovered region: %s", envB)
	}
	envA := RulesEnvelope(m, value.Str("a"), 64)
	if !envA.Eval(schema, value.Tuple{value.Int(5)}) || envA.Eval(schema, value.Tuple{value.Int(20)}) {
		t.Errorf("rule-class envelope wrong: %s", envA)
	}
}

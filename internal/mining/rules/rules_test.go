package rules

import (
	"math/rand"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/value"
)

// loanSet synthesizes a rule-friendly problem: reject if income low and
// debt high; review if income low and debt low; else approve.
func loanSet(n int, noise float64, seed int64) *mining.TrainSet {
	r := rand.New(rand.NewSource(seed))
	schema := value.MustSchema(
		value.Column{Name: "income", Kind: value.KindFloat},
		value.Column{Name: "debt", Kind: value.KindFloat},
		value.Column{Name: "region", Kind: value.KindString},
	)
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < n; i++ {
		inc := r.Float64() * 100
		debt := r.Float64() * 50
		region := []string{"n", "s", "e", "w"}[r.Intn(4)]
		var label string
		switch {
		case inc < 30 && debt > 25:
			label = "reject"
		case inc < 30:
			label = "review"
		default:
			label = "approve"
		}
		if r.Float64() < noise {
			label = []string{"reject", "review", "approve"}[r.Intn(3)]
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Float(inc), value.Float(debt), value.Str(region)})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	return ts
}

func TestTrainLearnsRules(t *testing.T) {
	ts := loanSet(4000, 0, 1)
	m, err := Train("loan", "decision", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules) == 0 {
		t.Fatal("no rules learned")
	}
	if m.Default.AsString() != "approve" {
		t.Errorf("default = %s, want approve (most common)", m.Default)
	}
	correct := 0
	for i, row := range ts.Rows {
		if value.Equal(m.Predict(row), ts.Labels[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(ts.Rows)); acc < 0.9 {
		t.Errorf("training accuracy %.3f too low (%d rules)", acc, len(m.Rules))
	}
}

func TestFirstMatchResolution(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "x", Kind: value.KindInt})
	m := &Model{
		schema:  schema,
		cols:    []string{"x"},
		classes: []value.Value{value.Str("a"), value.Str("b"), value.Str("c")},
		Default: value.Str("c"),
		Rules: []Rule{
			{Body: []expr.Expr{expr.Cmp{Col: "x", Op: expr.OpLe, Val: value.Int(10)}}, Class: value.Str("a")},
			{Body: []expr.Expr{expr.Cmp{Col: "x", Op: expr.OpLe, Val: value.Int(20)}}, Class: value.Str("b")},
		},
	}
	if got := m.Predict(value.Tuple{value.Int(5)}); got.AsString() != "a" {
		t.Errorf("overlapping rules must fire in order: got %s", got)
	}
	if got := m.Predict(value.Tuple{value.Int(15)}); got.AsString() != "b" {
		t.Errorf("second rule should fire: got %s", got)
	}
	if got := m.Predict(value.Tuple{value.Int(99)}); got.AsString() != "c" {
		t.Errorf("default should fire: got %s", got)
	}
}

// TestNullInputPredictsNull: a rule's atoms are read in order. A false
// atom before a NULL one ends that body and the next rule decides; an
// atom that reads a NULL predicts NULL, default class included.
func TestNullInputPredictsNull(t *testing.T) {
	schema := value.MustSchema(
		value.Column{Name: "x", Kind: value.KindInt},
		value.Column{Name: "y", Kind: value.KindInt})
	m := &Model{
		schema:  schema,
		cols:    []string{"x", "y"},
		classes: []value.Value{value.Str("a"), value.Str("b"), value.Str("c")},
		Default: value.Str("c"),
		Rules: []Rule{
			{Body: []expr.Expr{
				expr.Cmp{Col: "x", Op: expr.OpLe, Val: value.Int(10)},
				expr.Cmp{Col: "y", Op: expr.OpLe, Val: value.Int(10)}}, Class: value.Str("a")},
			{Body: []expr.Expr{expr.Cmp{Col: "x", Op: expr.OpGt, Val: value.Int(10)}}, Class: value.Str("b")},
		},
	}
	if got := m.Predict(value.Tuple{value.Int(20), value.Null()}); got.IsNull() || got.AsString() != "b" {
		t.Errorf("a false atom before the NULL should move on to the next rule, b: got %s", got)
	}
	if got := m.Predict(value.Tuple{value.Null(), value.Int(5)}); !got.IsNull() {
		t.Errorf("a NULL read first should predict NULL: got %s", got)
	}
	if got := m.Predict(value.Tuple{value.Int(5), value.Null()}); !got.IsNull() {
		t.Errorf("a NULL read after a true atom should predict NULL: got %s", got)
	}
}

func TestRulesUseBoundedConds(t *testing.T) {
	ts := loanSet(2000, 0.05, 2)
	m, err := Train("loan", "d", ts, Options{MaxConds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Rules {
		if len(r.Body) > 2 {
			t.Errorf("rule has %d conditions, bound is 2", len(r.Body))
		}
	}
}

func TestNoisyDataStillTrains(t *testing.T) {
	ts := loanSet(1500, 0.25, 3)
	m, err := Train("loan", "d", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every prediction must be one of the training classes.
	valid := map[string]bool{}
	for _, c := range m.Classes() {
		valid[c.String()] = true
	}
	for i := 0; i < 100; i++ {
		got := m.Predict(ts.Rows[i])
		if !valid[got.String()] {
			t.Fatalf("prediction %v is not a known class", got)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train("m", "c", &mining.TrainSet{}, Options{}); err == nil {
		t.Error("empty train set should error")
	}
}

func TestSingleClassYieldsDefaultOnly(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "x", Kind: value.KindInt})
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < 20; i++ {
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(int64(i))})
		ts.Labels = append(ts.Labels, value.Str("only"))
	}
	m, err := Train("m", "c", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules) != 0 || m.Default.AsString() != "only" {
		t.Errorf("single-class training should produce empty rule list, got %d rules", len(m.Rules))
	}
}

func TestMetadata(t *testing.T) {
	ts := loanSet(300, 0, 4)
	m, _ := Train("loan", "decision", ts, Options{})
	if m.Name() != "loan" || m.PredictColumn() != "decision" {
		t.Error("metadata broken")
	}
	if len(m.InputColumns()) != 3 {
		t.Errorf("InputColumns = %v", m.InputColumns())
	}
	if m.Schema() == nil {
		t.Error("Schema should be retained")
	}
	if len(m.Classes()) != 3 {
		t.Errorf("Classes = %v", m.Classes())
	}
}

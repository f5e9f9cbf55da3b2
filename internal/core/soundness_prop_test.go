package core

import (
	"fmt"
	"math/rand"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/value"
)

// The paper's central invariant: for every model M, class c, and tuple x
// in the model's input domain, predict(x) = c implies U_c(x) — the upper
// envelope may overestimate the class region but must never exclude a
// point the model actually assigns to the class. This file checks the
// invariant property-style: random models of every supported family,
// random tuples, and the derived atomic envelopes plus the composite
// envelopes the Section 4 rewrites build from them (IN disjunctions and
// <>-style complements).

// propFamily names one model family under test and how to train it.
type propFamily struct {
	name string
	// discrete restricts generated attribute values to a small integer
	// domain (the grid for naive Bayes is built from observed values, so
	// its envelopes only promise soundness over the trained domain).
	discrete bool
	train    func(ts *mining.TrainSet, seed int64) (mining.Model, error)
}

func propFamilies() []propFamily {
	return []propFamily{
		{"dtree", false, func(ts *mining.TrainSet, _ int64) (mining.Model, error) {
			return dtree.Train("m", "p", ts, dtree.Options{})
		}},
		{"rules", true, func(ts *mining.TrainSet, _ int64) (mining.Model, error) {
			return rules.Train("m", "p", ts, rules.Options{})
		}},
		{"nbayes", true, func(ts *mining.TrainSet, _ int64) (mining.Model, error) {
			return nbayes.Train("m", "p", ts, nbayes.Options{})
		}},
		{"kmeans", false, func(ts *mining.TrainSet, seed int64) (mining.Model, error) {
			return cluster.TrainKMeans("m", "p", ts, cluster.Options{K: 3, Seed: seed})
		}},
		{"gmm", false, func(ts *mining.TrainSet, seed int64) (mining.Model, error) {
			return cluster.TrainGMM("m", "p", ts, cluster.Options{K: 3, Seed: seed})
		}},
	}
}

// randTrainSet builds a random train set: 2-4 attributes, either small
// integer domains (discrete families) or mixed INT/FLOAT numerics, with
// labels correlated to the leading attribute plus noise so every family
// finds some structure.
func randTrainSet(r *rand.Rand, discrete bool) *mining.TrainSet {
	nAttrs := 2 + r.Intn(3)
	cols := make([]value.Column, nAttrs)
	for i := range cols {
		kind := value.KindInt
		if !discrete && r.Intn(2) == 0 {
			kind = value.KindFloat
		}
		cols[i] = value.Column{Name: fmt.Sprintf("a%d", i), Kind: kind}
	}
	ts := &mining.TrainSet{Schema: value.MustSchema(cols...)}
	nClasses := 2 + r.Intn(3)
	nRows := 80 + r.Intn(120)
	for i := 0; i < nRows; i++ {
		row := make(value.Tuple, nAttrs)
		for j, c := range cols {
			row[j] = randAttrValue(r, c.Kind, discrete)
		}
		cls := r.Intn(nClasses)
		if r.Intn(4) != 0 { // correlate with attribute 0, keep 25% noise
			cls = int(row[0].AsFloat()) % nClasses
			if cls < 0 {
				cls = -cls
			}
		}
		ts.Rows = append(ts.Rows, row)
		ts.Labels = append(ts.Labels, value.Str(fmt.Sprintf("c%d", cls)))
	}
	return ts
}

func randAttrValue(r *rand.Rand, kind value.Kind, discrete bool) value.Value {
	if discrete {
		return value.Int(int64(r.Intn(5)))
	}
	if kind == value.KindFloat {
		return value.Float(r.NormFloat64() * 10)
	}
	return value.Int(int64(r.Intn(41) - 20))
}

// randProbe draws one test tuple. Discrete families probe the trained
// domain (including attribute combinations never seen together in
// training — exactly the cases the grid algorithms must cover); numeric
// families probe a wider range than training to exercise the envelope's
// unbounded edge regions. One attribute in 8 is NULL: a model that reads
// it predicts NULL, and one whose path does not read it predicts a class
// its envelope must admit.
func randProbe(r *rand.Rand, s *value.Schema, discrete bool) value.Tuple {
	t := make(value.Tuple, s.Len())
	for i := 0; i < s.Len(); i++ {
		kind := s.Col(i).Kind
		if r.Intn(8) == 0 {
			t[i] = value.Null()
		} else if discrete {
			t[i] = value.Int(int64(r.Intn(5)))
		} else if kind == value.KindFloat {
			t[i] = value.Float(r.NormFloat64() * 15)
		} else {
			t[i] = value.Int(int64(r.Intn(61) - 30))
		}
	}
	return t
}

func TestEnvelopeSoundnessProperty(t *testing.T) {
	const seeds = 6
	const probes = 150
	for _, fam := range propFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				r := rand.New(rand.NewSource(1000*seed + 7))
				ts := randTrainSet(r, fam.discrete)
				m, err := fam.train(ts, seed)
				if err != nil {
					t.Fatalf("seed %d: train: %v", seed, err)
				}
				der, err := UpperEnvelopes(m, DefaultOptions())
				if err != nil {
					t.Fatalf("seed %d: derive: %v", seed, err)
				}
				classes := m.Classes()
				for _, c := range classes {
					if _, ok := der.Envelopes[c.String()]; !ok {
						t.Fatalf("seed %d: no envelope derived for class %s", seed, c)
					}
				}
				for p := 0; p < probes; p++ {
					x := randProbe(r, ts.Schema, fam.discrete)
					c := m.Predict(x)
					if c.IsNull() {
						continue // matches no class, so no envelope need admit it
					}
					env := der.Envelopes[c.String()]
					if env == nil {
						t.Fatalf("seed %d: predicted class %s has no envelope", seed, c)
					}
					if !env.Eval(ts.Schema, x) {
						t.Fatalf("seed %d probe %d: predict(%v) = %s but envelope %s excludes the tuple",
							seed, p, x, c, env)
					}
					checkCompositeEnvelopes(t, r, der, classes, c, ts.Schema, x)
				}
			}
		})
	}
}

// checkCompositeEnvelopes verifies the envelope forms the Section 4
// rewrites assemble from the atomic per-class envelopes.
func checkCompositeEnvelopes(t *testing.T, r *rand.Rand, der *Derivation, classes []value.Value, predicted value.Value, s *value.Schema, x value.Tuple) {
	t.Helper()
	// IN-predicate envelope: for any class set S containing the
	// predicted class, OR of the members' envelopes must admit x.
	var inEnv []expr.Expr
	for _, c := range classes {
		if value.Equal(c, predicted) || r.Intn(2) == 0 {
			inEnv = append(inEnv, der.Envelopes[c.String()])
		}
	}
	if !expr.NewOr(inEnv...).Eval(s, x) {
		t.Fatalf("IN envelope over a class set containing %s excludes %v", predicted, x)
	}
	// Complement (<>) envelope: for any excluded class c' != predicted,
	// the disjunction over the remaining classes must admit x.
	excluded := classes[r.Intn(len(classes))]
	if value.Equal(excluded, predicted) {
		return
	}
	var rest []expr.Expr
	for _, c := range classes {
		if !value.Equal(c, excluded) {
			rest = append(rest, der.Envelopes[c.String()])
		}
	}
	if !expr.NewOr(rest...).Eval(s, x) {
		t.Fatalf("complement envelope for <> %s excludes %v (predicted %s)", excluded, x, predicted)
	}
}

package rules

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/value"
)

// refTrain is the rule learner as it was when it read a literal
// TrainSet's rows: classes interned by rendering, a condition evaluated
// with Cmp.Eval on each row, and a row positive for a class when its
// label equals the class under value.Equal. It is the oracle
// TestTrainColumnsMatchesRows holds TrainColumns to.
func refTrain(ts *mining.TrainSet, opts Options) (rs []Rule, def value.Value, classes []value.Value) {
	opts.fill()
	var in mining.Interner
	for _, l := range ts.Labels {
		if in.ID(l) == len(classes) {
			classes = append(classes, l)
		}
	}
	counts := map[string]int{}
	for _, l := range ts.Labels {
		counts[l.String()]++
	}
	sort.Slice(classes, func(i, j int) bool {
		ci, cj := counts[classes[i].String()], counts[classes[j].String()]
		if ci != cj {
			return ci < cj
		}
		return value.Compare(classes[i], classes[j]) < 0
	})
	active := make([]bool, len(ts.Rows))
	for i := range active {
		active[i] = true
	}
	for _, cls := range classes[:len(classes)-1] {
		for {
			rule, covered := refGrowRule(ts, active, cls, opts)
			if rule == nil {
				break
			}
			rs = append(rs, *rule)
			for _, i := range covered {
				active[i] = false
			}
		}
	}
	def = classes[len(classes)-1]
	sort.Slice(classes, func(i, j int) bool { return value.Compare(classes[i], classes[j]) < 0 })
	return rs, def, classes
}

func refGrowRule(ts *mining.TrainSet, active []bool, cls value.Value, opts Options) (*Rule, []int) {
	var body []expr.Expr
	covered := make([]int, 0, len(ts.Rows))
	for i, a := range active {
		if a {
			covered = append(covered, i)
		}
	}
	for len(body) < opts.MaxConds {
		prec, pos := refPrecision(ts, covered, cls)
		if pos < opts.MinCoverage {
			return nil, nil
		}
		if prec >= opts.MinPrecision {
			break
		}
		cond, newCovered := refBestCondition(ts, covered, cls, prec)
		if cond == nil {
			break
		}
		body = append(body, cond)
		covered = newCovered
	}
	prec, pos := refPrecision(ts, covered, cls)
	if len(body) == 0 || pos < opts.MinCoverage || prec <= 0.5 {
		return nil, nil
	}
	return &Rule{Body: body, Class: cls}, covered
}

func refPrecision(ts *mining.TrainSet, covered []int, cls value.Value) (float64, int) {
	if len(covered) == 0 {
		return 0, 0
	}
	pos := 0
	for _, i := range covered {
		if value.Equal(ts.Labels[i], cls) {
			pos++
		}
	}
	return float64(pos) / float64(len(covered)), pos
}

func refBestCondition(ts *mining.TrainSet, covered []int, cls value.Value, basePrec float64) (expr.Expr, []int) {
	var best expr.Expr
	var bestCovered []int
	bestScore := basePrec
	bestPos := 0
	try := func(cond expr.Expr) {
		var sub []int
		for _, i := range covered {
			if cond.Eval(ts.Schema, ts.Rows[i]) {
				sub = append(sub, i)
			}
		}
		prec, pos := refPrecision(ts, sub, cls)
		if pos == 0 || len(sub) == len(covered) {
			return
		}
		if prec > bestScore || (prec == bestScore && pos > bestPos) {
			best, bestCovered, bestScore, bestPos = cond, sub, prec, pos
		}
	}
	for d := 0; d < ts.Schema.Len(); d++ {
		col := ts.Schema.Col(d).Name
		kind := ts.Schema.Col(d).Kind
		if kind == value.KindInt || kind == value.KindFloat {
			vals := make([]float64, 0, len(covered))
			for _, i := range covered {
				if v := ts.Rows[i][d]; !v.IsNull() {
					vals = append(vals, v.AsFloat())
				}
			}
			sort.Float64s(vals)
			step := len(vals) / maxThresholdCandidates
			if step == 0 {
				step = 1
			}
			for i := step; i < len(vals); i += step {
				if vals[i] == vals[i-1] {
					continue
				}
				t := (vals[i] + vals[i-1]) / 2
				try(expr.Cmp{Col: col, Op: expr.OpLe, Val: value.Float(t)})
				try(expr.Cmp{Col: col, Op: expr.OpGt, Val: value.Float(t)})
			}
		} else {
			seen := map[string]value.Value{}
			for _, i := range covered {
				if v := ts.Rows[i][d]; !v.IsNull() {
					seen[v.String()] = v
				}
			}
			keys := make([]string, 0, len(seen))
			for k := range seen {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				try(expr.Cmp{Col: col, Op: expr.OpEq, Val: seen[k]})
			}
		}
	}
	return best, bestCovered
}

// specialSet draws rows over a FLOAT attribute with NULL, NaN payloads,
// the infinities and both zeros, an INT attribute with NULLs and a TEXT
// attribute whose members include an INT 2 and a FLOAT 2 (which Equal
// ties, and render alike) and a -0 and a 0 (which Equal ties, and render
// apart). Labels are a noisy function of the row over INT 2, FLOAT 2, -0,
// 0, a string and NULL.
func specialSet(r *rand.Rand, n int) *mining.TrainSet {
	negZero := math.Copysign(0, -1)
	floats := []value.Value{value.Null(), value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000bad)),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(negZero), value.Float(0), value.Float(1.5)}
	texts := []value.Value{value.Str("a"), value.Str("b"), value.Int(2), value.Float(2), value.Float(negZero), value.Float(0), value.Null()}
	labels := []value.Value{value.Int(2), value.Float(2), value.Float(negZero), value.Float(0), value.Str("x"), value.Null()}
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "f", Kind: value.KindFloat},
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindString},
	)}
	for k := 0; k < n; k++ {
		f := floats[r.Intn(len(floats))]
		if r.Intn(2) == 0 {
			f = value.Float(float64(r.Intn(40)) / 4)
		}
		i := value.Int(int64(r.Intn(7)))
		if r.Intn(9) == 0 {
			i = value.Null()
		}
		s := texts[r.Intn(len(texts))]
		label := labels[r.Intn(len(labels))]
		if r.Intn(5) != 0 {
			switch {
			case s == value.Str("a") || s == value.Int(2):
				label = labels[r.Intn(2)]
			case !f.IsNull() && f.AsFloat() > 5:
				label = labels[2+r.Intn(2)]
			case !i.IsNull() && i.AsInt() < 2:
				label = labels[4]
			}
		}
		ts.Rows = append(ts.Rows, value.Tuple{f, i, s})
		ts.Labels = append(ts.Labels, label)
	}
	return ts
}

// TestTrainColumnsMatchesRows: a rule list learned over a set's columns
// is, condition for condition, the list the row-reading learner makes —
// each condition's column, operator and literal by ==, each rule's
// class, the default and the class list — over NULL, NaN, the
// infinities, -0, INT and FLOAT attributes, members Equal ties, and
// labels that render alike but differ as values.
func TestTrainColumnsMatchesRows(t *testing.T) {
	opts := []Options{{}, {MinCoverage: 1, MinPrecision: 0.99}, {MaxConds: 2, MinCoverage: 5}}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, ts := range []*mining.TrainSet{specialSet(r, 10+r.Intn(400)), loanSet(50+r.Intn(400), 0.2, seed)} {
			cs, err := ts.Columns()
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range opts {
				m, err := TrainColumns("m", "c", cs, o)
				if err != nil {
					t.Fatalf("seed %d %+v: %v", seed, o, err)
				}
				rs, def, classes := refTrain(ts, o)
				if m.Default != def || !slices.Equal(m.Classes(), classes) || len(m.Rules) != len(rs) {
					t.Fatalf("seed %d %+v: default %v classes %v, %d rules; want %v %v, %d", seed, o,
						m.Default, m.Classes(), len(m.Rules), def, classes, len(rs))
				}
				for k, rule := range rs {
					got := m.Rules[k]
					// A body is Cmp values, whose == compares a FLOAT literal's bits.
					if got.Class != rule.Class || !slices.Equal(got.Body, rule.Body) {
						t.Fatalf("seed %d %+v: rule %d is %v => %v, want %v => %v", seed, o, k, got.Body, got.Class, rule.Body, rule.Class)
					}
				}
			}
		}
	}
}

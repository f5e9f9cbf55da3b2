package nbayes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// paperModel builds the exact classifier of the paper's Table 1:
// 3 classes, d0 with 4 members, d1 with 3 members.
func paperModel(t *testing.T) *Model {
	t.Helper()
	m, err := FromParameters(
		"paper", "cls",
		[]string{"d0", "d1"},
		[]value.Value{value.Str("c1"), value.Str("c2"), value.Str("c3")},
		[][]value.Value{
			{value.Int(0), value.Int(1), value.Int(2), value.Int(3)},
			{value.Int(0), value.Int(1), value.Int(2)},
		},
		[]float64{0.33, 0.5, 0.17},
		[][][]float64{
			{ // d0: Pr(m|c1), Pr(m|c2), Pr(m|c3)
				{.4, .1, .05},
				{.4, .1, .05},
				{.05, .4, .4},
				{.05, .4, .4},
			},
			{ // d1
				{.01, .7, .05},
				{.5, .29, .05},
				{.49, .1, .9},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPaperTable1Predictions verifies every internal cell of Table 1.
func TestPaperTable1Predictions(t *testing.T) {
	m := paperModel(t)
	want := [4][3]string{ // [d0][d1]
		{"c2", "c1", "c1"},
		{"c2", "c1", "c1"},
		{"c2", "c2", "c3"},
		{"c2", "c2", "c3"},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			got := m.Predict(value.Tuple{value.Int(int64(i)), value.Int(int64(j))})
			if got.AsString() != want[i][j] {
				t.Errorf("Predict(m%d0, m%d1) = %s, want %s", i, j, got, want[i][j])
			}
		}
	}
}

func TestJointProbMatchesTable1(t *testing.T) {
	m := paperModel(t)
	// Top-left cell: Pr(x|c1)Pr(c1) for x=(m00, m01) = .33*.4*.01 = .00132
	got := m.JointProb([]int{0, 0}, 0)
	if diff := got - 0.33*0.4*0.01; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("JointProb = %g", got)
	}
}

func TestFromParametersValidation(t *testing.T) {
	classes := []value.Value{value.Str("a"), value.Str("b")}
	dom := [][]value.Value{{value.Int(0), value.Int(1)}}
	good := [][][]float64{{{0.5, 0.5}, {0.5, 0.5}}}
	cases := []struct {
		name string
		f    func() error
	}{
		{"bad priors sum", func() error {
			_, err := FromParameters("m", "c", []string{"d"}, classes, dom, []float64{0.5, 0.4}, good)
			return err
		}},
		{"zero prior", func() error {
			_, err := FromParameters("m", "c", []string{"d"}, classes, dom, []float64{0, 1}, good)
			return err
		}},
		{"prior count mismatch", func() error {
			_, err := FromParameters("m", "c", []string{"d"}, classes, dom, []float64{1}, good)
			return err
		}},
		{"shape mismatch", func() error {
			_, err := FromParameters("m", "c", []string{"d", "e"}, classes, dom, []float64{0.5, 0.5}, good)
			return err
		}},
		{"zero cond prob", func() error {
			bad := [][][]float64{{{0, 1}, {0.5, 0.5}}}
			_, err := FromParameters("m", "c", []string{"d"}, classes, dom, []float64{0.5, 0.5}, bad)
			return err
		}},
		{"ragged cond", func() error {
			bad := [][][]float64{{{0.5, 0.5}}}
			_, err := FromParameters("m", "c", []string{"d"}, classes, dom, []float64{0.5, 0.5}, bad)
			return err
		}},
		{"ragged class dim", func() error {
			bad := [][][]float64{{{0.5}, {0.5, 0.5}}}
			_, err := FromParameters("m", "c", []string{"d"}, classes, dom, []float64{0.5, 0.5}, bad)
			return err
		}},
	}
	for _, c := range cases {
		if c.f() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// synthTrainSet builds a well-separated two-attribute problem.
func synthTrainSet(n int, seed int64) *mining.TrainSet {
	r := rand.New(rand.NewSource(seed))
	schema := value.MustSchema(
		value.Column{Name: "color", Kind: value.KindString},
		value.Column{Name: "size", Kind: value.KindString},
	)
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < n; i++ {
		// Class A: mostly red/small; class B: mostly blue/large.
		var color, size, label string
		if r.Intn(2) == 0 {
			label = "A"
			color = pick(r, []string{"red", "red", "red", "blue"})
			size = pick(r, []string{"small", "small", "medium"})
		} else {
			label = "B"
			color = pick(r, []string{"blue", "blue", "blue", "red"})
			size = pick(r, []string{"large", "large", "medium"})
		}
		ts.Rows = append(ts.Rows, value.Tuple{value.Str(color), value.Str(size)})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	return ts
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func TestTrainLearnsSeparableClasses(t *testing.T) {
	ts := synthTrainSet(2000, 3)
	m, err := Train("nb", "cls", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes()) != 2 {
		t.Fatalf("classes = %v", m.Classes())
	}
	correct := 0
	for i, row := range ts.Rows {
		if value.Equal(m.Predict(row), ts.Labels[i]) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ts.Rows))
	if acc < 0.8 {
		t.Errorf("training accuracy %.3f too low for a separable problem", acc)
	}
}

func TestProbabilityTablesNormalized(t *testing.T) {
	ts := synthTrainSet(500, 4)
	m, err := Train("nb", "cls", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var priorSum float64
	for _, p := range m.Priors {
		priorSum += p
	}
	if priorSum < 0.999 || priorSum > 1.001 {
		t.Errorf("priors sum to %g", priorSum)
	}
	for d := range m.Cond {
		for k := range m.Classes() {
			var s float64
			for l := range m.Cond[d] {
				p := m.Cond[d][l][k]
				if p <= 0 || p >= 1 {
					t.Fatalf("Cond[%d][%d][%d] = %g out of (0,1)", d, l, k, p)
				}
				s += p
			}
			if s < 0.999 || s > 1.001 {
				t.Errorf("Cond[%d][*][%d] sums to %g", d, k, s)
			}
		}
	}
}

func TestUnseenMemberUsesFloor(t *testing.T) {
	ts := synthTrainSet(200, 5)
	m, err := Train("nb", "cls", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A color never seen in training must not panic and must still
	// produce some class.
	got := m.Predict(value.Tuple{value.Str("chartreuse"), value.Str("small")})
	if got.IsNull() {
		t.Error("prediction with unseen member should still produce a class")
	}
	// Naive Bayes reads every input, so a NULL one predicts NULL.
	got = m.Predict(value.Tuple{value.Null(), value.Str("large")})
	if !got.IsNull() {
		t.Errorf("prediction with NULL attribute should be NULL, got %s", got)
	}
}

func TestMemberIndex(t *testing.T) {
	m := paperModel(t)
	if m.MemberIndex(0, value.Int(2)) != 2 {
		t.Error("MemberIndex of present member wrong")
	}
	if m.MemberIndex(0, value.Int(9)) != -1 {
		t.Error("MemberIndex of absent member should be -1")
	}
}

func TestTieBreakTowardLargerPrior(t *testing.T) {
	// Two classes with identical conditionals but different priors tie
	// in conditional terms; the larger prior must win everywhere.
	m, err := FromParameters("tie", "c",
		[]string{"d"},
		[]value.Value{value.Str("x"), value.Str("y")},
		[][]value.Value{{value.Int(0), value.Int(1)}},
		[]float64{0.3, 0.7},
		[][][]float64{{{0.5, 0.5}, {0.5, 0.5}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := m.Predict(value.Tuple{value.Int(int64(i))}); got.AsString() != "y" {
			t.Errorf("tie at member %d resolved to %s, want y (larger prior)", i, got)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train("m", "c", &mining.TrainSet{}, Options{}); err == nil {
		t.Error("empty train set should error")
	}
	schema := value.MustSchema(value.Column{Name: "a", Kind: value.KindString})
	bad := &mining.TrainSet{
		Schema: schema,
		Rows:   []value.Tuple{{value.Null()}},
		Labels: []value.Value{value.Str("x")},
	}
	if _, err := Train("m", "c", bad, Options{}); err == nil {
		t.Error("all-null attribute should error")
	}
}

// trainByRendering is Train as it was when every count keyed its member
// and its class by Value.String: the oracle for the interned counts.
func trainByRendering(ts *mining.TrainSet, laplace float64) *Model {
	var classes []value.Value // first-seen order, one per rendering
	seenClass := map[string]bool{}
	for _, l := range ts.Labels {
		if !seenClass[l.String()] {
			seenClass[l.String()] = true
			classes = append(classes, l)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return value.Compare(classes[i], classes[j]) < 0 })
	classIdx := map[string]int{}
	for k, c := range classes {
		classIdx[c.String()] = k
	}
	n := ts.Schema.Len()
	m := &Model{classes: classes, Domains: make([][]value.Value, n), Priors: make([]float64, len(classes)),
		Cond: make([][][]float64, n), Floor: make([][]float64, n)}
	memberIdx := make([]map[string]int, n)
	for d := 0; d < n; d++ {
		seen := map[string]value.Value{}
		for _, r := range ts.Rows {
			if !r[d].IsNull() {
				seen[r[d].String()] = r[d]
			}
		}
		for _, v := range seen {
			m.Domains[d] = append(m.Domains[d], v)
		}
		sort.Slice(m.Domains[d], func(i, j int) bool { return value.Compare(m.Domains[d][i], m.Domains[d][j]) < 0 })
		memberIdx[d] = map[string]int{}
		for l, v := range m.Domains[d] {
			memberIdx[d][v.String()] = l
		}
	}
	classCount := make([]float64, len(classes))
	counts := make([][][]float64, n)
	for d := 0; d < n; d++ {
		counts[d] = make([][]float64, len(m.Domains[d]))
		for l := range counts[d] {
			counts[d][l] = make([]float64, len(classes))
		}
	}
	for i, r := range ts.Rows {
		k := classIdx[ts.Labels[i].String()]
		classCount[k]++
		for d := 0; d < n; d++ {
			if !r[d].IsNull() {
				counts[d][memberIdx[d][r[d].String()]][k]++
			}
		}
	}
	minCount := classCount[0]
	for k := range classes {
		m.Priors[k] = classCount[k] / float64(len(ts.Rows))
		minCount = math.Min(minCount, classCount[k])
	}
	for d := 0; d < n; d++ {
		nd := float64(len(m.Domains[d]))
		floor := laplace / (minCount + laplace*nd)
		m.Floor[d] = make([]float64, len(classes))
		m.Cond[d] = make([][]float64, len(m.Domains[d]))
		for k := range classes {
			m.Floor[d][k] = floor
		}
		for l := range m.Domains[d] {
			m.Cond[d][l] = make([]float64, len(classes))
			for k := range classes {
				m.Cond[d][l][k] = math.Max(floor, (counts[d][l][k]+laplace)/(classCount[k]+laplace*nd))
			}
		}
	}
	return m
}

// TestTrainMatchesRenderKeyedCounts: interning members and classes by
// kind before rendering trains the model counting by rendering did, over
// the values where the two part ways — INT 2 and FLOAT 2 (one member,
// the last seen standing for it), -0 and 0 (two), NaN payloads (one),
// and NULL — and over INTs, FLOATs and TEXTs interleaved, the TEXT
// holding an INT's rendering ("2" beside 2 and 2.0). Members Compare ties
// (-0 and 0) may sit in either order, the render-keyed loop's map order
// having never fixed it, so each attribute's members are matched by
// rendering.
func TestTrainMatchesRenderKeyedCounts(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8000000000bad)
	cases := []struct {
		what  string
		pools [][]value.Value // two attributes' values, then the labels
	}{
		{"±0, NaN payloads, INT and FLOAT 2", [][]value.Value{
			{value.Int(2), value.Float(2), value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(nan2), value.Null(), value.Int(-1)},
			{value.Str("2"), value.Int(2), value.Float(2.5), value.Bool(true), value.Str("TRUE"), value.Null(), value.Str("")},
			{value.Str("a"), value.Int(2), value.Float(2), value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(nan2), value.Null()},
		}},
		{"INT, FLOAT and TEXT of one rendering interleaved", [][]value.Value{
			{value.Int(2), value.Str("2"), value.Float(2), value.Int(0), value.Str("0"), value.Float(0), value.Int(-1), value.Str("-1"), value.Float(-1), value.Null()},
			{value.Str("2"), value.Int(2), value.Str(`"2"`), value.Float(2), value.Str("TRUE"), value.Bool(true), value.Str("1e+21"), value.Float(1e21), value.Int(1e18)},
			{value.Int(1), value.Str("1"), value.Float(1), value.Str("x"), value.Int(2), value.Float(2), value.Str("2")},
		}},
	}
	schema := value.MustSchema(value.Column{Name: "x", Kind: value.KindFloat}, value.Column{Name: "y", Kind: value.KindString})
	for _, c := range cases {
		pools := c.pools
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			ts := &mining.TrainSet{Schema: schema}
			for i := 0; i < 10+r.Intn(200); i++ {
				ts.Rows = append(ts.Rows, value.Tuple{pools[0][r.Intn(len(pools[0]))], pools[1][r.Intn(len(pools[1]))]})
				ts.Labels = append(ts.Labels, pools[2][r.Intn(len(pools[2]))])
			}
			got, err := Train("nb", "cls", ts, Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.what, seed, err)
			}
			// == on Values compares a FLOAT's bits: slices.Equal is identity.
			want := trainByRendering(ts, 1)
			if !slices.Equal(got.classes, want.classes) || !slices.Equal(got.Priors, want.Priors) {
				t.Fatalf("%s seed %d: classes %v priors %v, want %v %v", c.what, seed, got.classes, got.Priors, want.classes, want.Priors)
			}
			for d := range want.Domains {
				if !slices.Equal(got.Floor[d], want.Floor[d]) {
					t.Fatalf("%s seed %d attribute %d: floor %v, want %v", c.what, seed, d, got.Floor[d], want.Floor[d])
				}
				if !slices.IsSortedFunc(got.Domains[d], value.Compare) || len(got.Domains[d]) != len(want.Domains[d]) {
					t.Fatalf("%s seed %d attribute %d: domain %v, want %v sorted by Compare", c.what, seed, d, got.Domains[d], want.Domains[d])
				}
				byText := map[string]int{}
				for l, v := range want.Domains[d] {
					byText[v.String()] = l
				}
				for l, v := range got.Domains[d] {
					wl, ok := byText[v.String()]
					if !ok || v != want.Domains[d][wl] || !slices.Equal(got.Cond[d][l], want.Cond[d][wl]) {
						t.Fatalf("%s seed %d attribute %d: member %v (%v) cond %v, want %v (%v) cond %v",
							c.what, seed, d, v, v.Kind(), got.Cond[d][l], want.Domains[d][wl], want.Domains[d][wl].Kind(), want.Cond[d][wl])
					}
				}
			}
		}
	}
}

// BenchmarkTrainNaiveBayesWide counts 160k rows shaped like the
// benchmark's wide table's training rows — visits (20 INT values) and
// tier (5) predicting a 3-valued TEXT segment — and fits the model, as
// the engine's training scan does row by row.
func BenchmarkTrainNaiveBayesWide(b *testing.B) {
	const n = 160000
	r := rand.New(rand.NewSource(7))
	segments := []string{"regular", "vip", "budget"}
	rows := make([]value.Tuple, n)
	labels := make([]value.Value, n)
	for i := range rows {
		rows[i] = value.Tuple{value.Int(int64(r.Intn(20))), value.Int(int64(r.Intn(5)))}
		// A scan decodes every label into a string of its own.
		labels[i] = value.Str(string([]byte(segments[r.Intn(3)])))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCounts(2)
		for j, row := range rows {
			c.Add(row, labels[j])
		}
		if _, err := c.Model("wide", "segment", []string{"visits", "tier"}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestModelMetadata(t *testing.T) {
	m := paperModel(t)
	if m.Name() != "paper" || m.PredictColumn() != "cls" {
		t.Error("metadata accessors broken")
	}
	if got := m.InputColumns(); len(got) != 2 || got[0] != "d0" {
		t.Errorf("InputColumns = %v", got)
	}
}

func TestManyClassesPredictConsistentWithJointProb(t *testing.T) {
	// Property: Predict agrees with brute-force argmax of JointProb for
	// random in-domain points.
	r := rand.New(rand.NewSource(6))
	schema := value.MustSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindInt},
		value.Column{Name: "c", Kind: value.KindInt},
	)
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < 3000; i++ {
		a, b, c := r.Intn(5), r.Intn(4), r.Intn(3)
		label := fmt.Sprintf("k%d", (a+2*b+c+r.Intn(3))%6)
		ts.Rows = append(ts.Rows, value.Tuple{value.Int(int64(a)), value.Int(int64(b)), value.Int(int64(c))})
		ts.Labels = append(ts.Labels, value.Str(label))
	}
	m, err := Train("nb", "cls", ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		ls := []int{r.Intn(5), r.Intn(4), r.Intn(3)}
		row := value.Tuple{
			m.Domains[0][ls[0]], m.Domains[1][ls[1]], m.Domains[2][ls[2]],
		}
		got := m.Predict(row)
		bestK, bestP := -1, -1.0
		for k := range m.Classes() {
			p := m.JointProb(ls, k)
			if p > bestP || (p == bestP && m.Priors[k] > m.Priors[bestK]) {
				bestK, bestP = k, p
			}
		}
		if !value.Equal(got, m.Classes()[bestK]) {
			t.Fatalf("Predict(%v) = %v, brute force says %v", row, got, m.Classes()[bestK])
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/nbayes"
	"minequery/internal/value"
)

// paperNB builds the paper's Table 1 classifier.
func paperNB(t *testing.T) *nbayes.Model {
	t.Helper()
	m, err := nbayes.FromParameters(
		"paper", "cls",
		[]string{"d0", "d1"},
		[]value.Value{value.Str("c1"), value.Str("c2"), value.Str("c3")},
		[][]value.Value{
			{value.Int(0), value.Int(1), value.Int(2), value.Int(3)},
			{value.Int(0), value.Int(1), value.Int(2)},
		},
		[]float64{0.33, 0.5, 0.17},
		[][][]float64{
			{{.4, .1, .05}, {.4, .1, .05}, {.05, .4, .4}, {.05, .4, .4}},
			{{.01, .7, .05}, {.5, .29, .05}, {.49, .1, .9}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGridFromNaiveBayesMatchesModel(t *testing.T) {
	m := paperNB(t)
	g := GridFromNaiveBayes(m)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Dims) != 2 || len(g.Dims[0].Members) != 4 || len(g.Dims[1].Members) != 3 {
		t.Fatal("grid shape wrong")
	}
	if !g.Dims[0].Ordered {
		t.Error("numeric domain should be ordered")
	}
	// Every cell's grid winner equals the model's prediction.
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			w := g.CellWinner([]int{i, j})
			p := m.Predict(value.Tuple{value.Int(int64(i)), value.Int(int64(j))})
			if !value.Equal(g.Classes[w], p) {
				t.Errorf("cell (%d,%d): grid says %v, model says %v", i, j, g.Classes[w], p)
			}
		}
	}
}

func TestGridValidateCatchesBadShapes(t *testing.T) {
	bad := []*Grid{
		{},
		{Classes: []value.Value{value.Int(0)}},
		{Classes: []value.Value{value.Int(0)}, Base: []float64{0, 1}},
		{Classes: []value.Value{value.Int(0)}, Base: []float64{0},
			Dims: []Dim{{Col: "x"}}},
		{Classes: []value.Value{value.Int(0)}, Base: []float64{0},
			Dims: []Dim{{Col: "x", Members: []Member{{}},
				ScoreLo: [][]float64{{1}}, ScoreHi: [][]float64{{0}}}}},
		{Classes: []value.Value{value.Int(0)}, Base: []float64{0}, TiePrior: []float64{1, 2},
			Dims: []Dim{{Col: "x", Members: []Member{{}},
				ScoreLo: [][]float64{{0}}, ScoreHi: [][]float64{{0}}}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}

func TestQuadScoreBounds(t *testing.T) {
	// Centroid inside the interval: max score is 0 at the centroid.
	lo, hi := quadScoreBounds(5, 2, 0, 10)
	if hi != 0 {
		t.Errorf("hi = %g, want 0", hi)
	}
	if lo != -2*25 {
		t.Errorf("lo = %g, want -50", lo)
	}
	// Centroid left of the interval.
	lo, hi = quadScoreBounds(-3, 1, 0, 10)
	if hi != -9 {
		t.Errorf("hi = %g, want -9", hi)
	}
	if lo != -169 {
		t.Errorf("lo = %g, want -169", lo)
	}
	// Unbounded interval: lo is -inf.
	lo, hi = quadScoreBounds(0, 1, 0, math.Inf(1))
	if !math.IsInf(lo, -1) || hi != 0 {
		t.Errorf("unbounded: lo=%g hi=%g", lo, hi)
	}
	// Zero weight contributes nothing.
	lo, hi = quadScoreBounds(5, 0, 0, math.Inf(1))
	if lo != 0 || hi != 0 {
		t.Errorf("zero weight: lo=%g hi=%g", lo, hi)
	}
}

func TestGridFromKMeansWinnerMatchesAssign(t *testing.T) {
	m, err := cluster.FromCentroids("km", "cl", []string{"x", "y"},
		[][]float64{{0, 0}, {10, 0}, {5, 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := GridFromKMeans(m, 12)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// For every grid cell, if the cell resolves (MUST-WIN for some k),
	// the resolved class must match the model assignment at the cell
	// center.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		x := []float64{r.Float64()*20 - 5, r.Float64()*18 - 5}
		k := m.Assign(x)
		// Find the cell containing x.
		ls := make([]int, 2)
		for d := 0; d < 2; d++ {
			for l, mem := range g.Dims[d].Members {
				if x[d] >= mem.Lo && x[d] < mem.Hi {
					ls[d] = l
					break
				}
			}
		}
		// The assigned cluster's score at x must lie within the cell's
		// grid bounds.
		for c := range g.Classes {
			s := m.Score(x, c)
			var lo, hi float64
			for d, l := range ls {
				lo += g.Dims[d].ScoreLo[l][c]
				hi += g.Dims[d].ScoreHi[l][c]
			}
			if s < lo-1e-9 || s > hi+1e-9 {
				t.Fatalf("trial %d: score %g of cluster %d outside cell bounds [%g, %g]", trial, s, c, lo, hi)
			}
		}
		_ = k
	}
}

func TestRefineCuts(t *testing.T) {
	cuts := refineCuts([]float64{5}, 0, 10, 8)
	if len(cuts) < 5 {
		t.Errorf("refinement too coarse: %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly ascending: %v", cuts)
		}
	}
	// Base cuts must be preserved.
	found := false
	for _, c := range cuts {
		if c == 5 {
			found = true
		}
	}
	if !found {
		t.Error("base cut lost")
	}
}

func TestIntervalMembersTile(t *testing.T) {
	ms := intervalMembers([]float64{0, 5, 10})
	if len(ms) != 4 {
		t.Fatalf("members = %d", len(ms))
	}
	if !math.IsInf(ms[0].Lo, -1) || ms[0].Hi != 0 {
		t.Error("first member should be (-inf, 0)")
	}
	if ms[3].Lo != 10 || !math.IsInf(ms[3].Hi, 1) {
		t.Error("last member should be [10, +inf)")
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Lo != ms[i-1].Hi {
			t.Error("members must tile the line")
		}
	}
}

// TestEqualWidthBins checks refineCuts' equal-width refinement: with no
// base cuts, [0, 100] at 6 members is cut every 25, and each value
// lands in the member its rendered range admits.
func TestEqualWidthBins(t *testing.T) {
	cuts := refineCuts(nil, 0, 100, 6)
	if want := []float64{0, 25, 50, 75, 100}; !slices.Equal(cuts, want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	dim := &Dim{Col: "x", Members: intervalMembers(cuts)}
	for _, c := range []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 1}, {24.9, 1}, {25, 2}, {49, 2}, {50, 3}, {74, 3}, {75, 4}, {100, 5}, {1e9, 5},
	} {
		if got := memberHolding(t, dim, c.x); got != c.want {
			t.Errorf("%g is in member %d, want %d", c.x, got, c.want)
		}
	}
}

// TestEqualWidthErrors checks that a degenerate range, lo >= hi, adds
// no cuts: the base cuts come back sorted and deduplicated, and with no
// base cuts one member spans the line.
func TestEqualWidthErrors(t *testing.T) {
	for _, c := range []struct {
		base   []float64
		lo, hi float64
		want   []float64
	}{
		{[]float64{3, 1, 3}, 5, 5, []float64{1, 3}},
		{[]float64{3, 1, 3}, 10, 5, []float64{1, 3}},
		{nil, 10, 5, nil},
	} {
		got := refineCuts(c.base, c.lo, c.hi, 8)
		if !slices.Equal(got, c.want) {
			t.Errorf("refineCuts(%v, %g, %g) = %v, want %v", c.base, c.lo, c.hi, got, c.want)
		}
	}
	if ms := intervalMembers(nil); len(ms) != 1 || !math.IsInf(ms[0].Lo, -1) || !math.IsInf(ms[0].Hi, 1) {
		t.Errorf("members of no cuts = %+v, want one (-inf, +inf)", ms)
	}
}

// TestBounds checks the outer members: (-inf, c) and [c, +inf), each
// rendered with its one finite bound only.
func TestBounds(t *testing.T) {
	dim := &Dim{Col: "x", Members: intervalMembers([]float64{5})}
	for i, want := range []string{"x < 5", "x >= 5"} {
		if got := intervalRun(dim, i, i).String(); got != want {
			t.Errorf("member %d renders %q, want %q", i, got, want)
		}
	}
	for _, c := range []struct {
		x    float64
		want int
	}{{math.Inf(-1), 0}, {-1e300, 0}, {4.999, 0}, {5, 1}, {1e300, 1}, {math.Inf(1), 1}} {
		if got := memberHolding(t, dim, c.x); got != c.want {
			t.Errorf("%g is in member %d, want %d", c.x, got, c.want)
		}
	}
}

// TestBoundsConsistentWithBin checks on random values that the one
// member whose rendered range admits x is the one whose [Lo, Hi) holds
// it.
func TestBoundsConsistentWithBin(t *testing.T) {
	dim := &Dim{Col: "x", Members: intervalMembers(refineCuts(nil, -3, 7, 7))}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := r.Float64()*20 - 10
		m := dim.Members[memberHolding(t, dim, x)]
		if !(m.Lo <= x && x < m.Hi) {
			t.Fatalf("x=%g landed in member [%g, %g)", x, m.Lo, m.Hi)
		}
	}
}

// TestBoundaryBelongsToRightBin checks that a cut value falls in the
// member on its right.
func TestBoundaryBelongsToRightBin(t *testing.T) {
	dim := &Dim{Col: "x", Members: intervalMembers([]float64{10, 20})}
	for _, c := range []struct {
		x    float64
		want int
	}{{9.999, 0}, {10, 1}, {20, 2}} {
		if got := memberHolding(t, dim, c.x); got != c.want {
			t.Errorf("%g is in member %d, want %d", c.x, got, c.want)
		}
	}
}

// memberHolding returns the one member of an interval dimension whose
// rendered range admits x.
func memberHolding(t *testing.T, dim *Dim, x float64) int {
	t.Helper()
	schema := value.MustSchema(value.Column{Name: dim.Col, Kind: value.KindFloat})
	row := value.Tuple{value.Float(x)}
	found := -1
	for i := range dim.Members {
		if !intervalRun(dim, i, i).Eval(schema, row) {
			continue
		}
		if found >= 0 {
			t.Fatalf("%g is in members %d and %d", x, found, i)
		}
		found = i
	}
	if found < 0 {
		t.Fatalf("%g is in no member", x)
	}
	return found
}

// randomNB trains a random naive Bayes model for property tests.
func randomNB(t testing.TB, seed int64, dims, domainMax, classes, rows int) *nbayes.Model {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cols := make([]value.Column, dims)
	for d := range cols {
		cols[d] = value.Column{Name: string(rune('a' + d)), Kind: value.KindInt}
	}
	schema := value.MustSchema(cols...)
	sizes := make([]int, dims)
	for d := range sizes {
		sizes[d] = 2 + r.Intn(domainMax-1)
	}
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < rows; i++ {
		row := make(value.Tuple, dims)
		sum := 0
		for d := range row {
			v := r.Intn(sizes[d])
			row[d] = value.Int(int64(v))
			sum += v
		}
		label := (sum + r.Intn(3)) % classes
		ts.Rows = append(ts.Rows, row)
		ts.Labels = append(ts.Labels, value.Str(string(rune('A'+label))))
	}
	m, err := nbayes.Train("rand", "cls", ts, nbayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

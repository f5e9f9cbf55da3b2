package cluster

import (
	"math"
	"math/rand"
	"testing"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// blobs generates n points around k well-separated centers.
func blobs(n, k int, seed int64) (*mining.TrainSet, [][]float64) {
	r := rand.New(rand.NewSource(seed))
	schema := value.MustSchema(
		value.Column{Name: "x", Kind: value.KindFloat},
		value.Column{Name: "y", Kind: value.KindFloat},
	)
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = []float64{float64(i * 20), float64((i % 2) * 30)}
	}
	ts := &mining.TrainSet{Schema: schema}
	for i := 0; i < n; i++ {
		c := centers[r.Intn(k)]
		ts.Rows = append(ts.Rows, value.Tuple{
			value.Float(c[0] + r.NormFloat64()),
			value.Float(c[1] + r.NormFloat64()),
		})
		ts.Labels = append(ts.Labels, value.Null()) // unsupervised
	}
	return ts, centers
}

func TestKMeansFindsBlobCenters(t *testing.T) {
	ts, centers := blobs(3000, 4, 1)
	m, err := TrainKMeans("km", "cluster", ts, Options{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Centroids) != 4 {
		t.Fatalf("centroids = %d", len(m.Centroids))
	}
	// Every true center must have a learned centroid within distance 2.
	for _, c := range centers {
		best := math.Inf(1)
		for _, got := range m.Centroids {
			if d := sqDist(c, got); d < best {
				best = d
			}
		}
		if best > 4 { // squared distance
			t.Errorf("no centroid near true center %v (closest sq dist %g)", c, best)
		}
	}
}

func TestKMeansAssignmentIsNearestCentroid(t *testing.T) {
	ts, _ := blobs(1000, 3, 2)
	m, err := TrainKMeans("km", "cluster", ts, Options{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		x := []float64{r.Float64()*60 - 10, r.Float64()*50 - 10}
		got := m.Assign(x)
		best, bestD := 0, math.Inf(1)
		for k, c := range m.Centroids {
			if d := sqDist(x, c); d < bestD {
				best, bestD = k, d
			}
		}
		if got != best {
			t.Fatalf("Assign(%v) = %d, nearest centroid is %d", x, got, best)
		}
	}
}

func TestKMeansPredictReturnsClusterID(t *testing.T) {
	ts, _ := blobs(500, 2, 5)
	m, _ := TrainKMeans("km", "cluster", ts, Options{K: 2, Seed: 5})
	got := m.Predict(value.Tuple{value.Float(0), value.Float(0)})
	if got.Kind() != value.KindInt || got.AsInt() < 0 || got.AsInt() >= 2 {
		t.Errorf("Predict = %v", got)
	}
	if len(m.Classes()) != 2 {
		t.Errorf("Classes = %v", m.Classes())
	}
}

// TestNullInputPredictsNull: k-means and GMM read every input, so a
// NULL one predicts NULL instead of being read as 0.
func TestNullInputPredictsNull(t *testing.T) {
	km, err := FromCentroids("km", "cluster", []string{"x", "y"}, [][]float64{{0, 0}, {10, 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromGaussians("g", "cluster", []string{"x", "y"}, []float64{0.5, 0.5},
		[][]float64{{0, 0}, {10, 10}}, [][]float64{{1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []mining.Model{km, g} {
		for _, in := range []value.Tuple{
			{value.Null(), value.Float(0)},
			{value.Float(10), value.Null()},
			{value.Null(), value.Null()},
		} {
			if got := m.Predict(in); !got.IsNull() {
				t.Errorf("%s.Predict%v = %v, want NULL", m.Name(), in, got)
			}
		}
		if got := m.Predict(value.Tuple{value.Float(9), value.Float(11)}); got.IsNull() || got.AsInt() != 1 {
			t.Errorf("%s.Predict(9, 11) = %v, want 1", m.Name(), got)
		}
	}
}

func TestWeightedAssignment(t *testing.T) {
	// Two centroids equidistant in raw space; weights break the tie.
	m, err := FromCentroids("w", "cluster", []string{"x"},
		[][]float64{{0}, {10}},
		[][]float64{{1}, {0.1}}, // cluster 1 tolerates distance
	)
	if err != nil {
		t.Fatal(err)
	}
	// At x=5: cluster 0 score = -25, cluster 1 score = -2.5.
	if got := m.Assign([]float64{5}); got != 1 {
		t.Errorf("weighted assignment = %d, want 1", got)
	}
	// At x=1: cluster 0 score = -1, cluster 1 = -8.1.
	if got := m.Assign([]float64{1}); got != 0 {
		t.Errorf("weighted assignment = %d, want 0", got)
	}
}

func TestFromCentroidsValidation(t *testing.T) {
	if _, err := FromCentroids("m", "c", []string{"x"}, nil, nil); err == nil {
		t.Error("no centroids should error")
	}
	if _, err := FromCentroids("m", "c", []string{"x", "y"}, [][]float64{{1}}, nil); err == nil {
		t.Error("dim mismatch should error")
	}
	if _, err := FromCentroids("m", "c", []string{"x"}, [][]float64{{1}, {2, 3}}, nil); err == nil {
		t.Error("ragged centroids should error")
	}
	if _, err := FromCentroids("m", "c", []string{"x"}, [][]float64{{1}}, [][]float64{{-1}}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := FromCentroids("m", "c", []string{"x"}, [][]float64{{1}}, [][]float64{{1}, {1}}); err == nil {
		t.Error("weight row count mismatch should error")
	}
}

func TestKMeansErrors(t *testing.T) {
	ts, _ := blobs(10, 2, 6)
	if _, err := TrainKMeans("m", "c", ts, Options{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := TrainKMeans("m", "c", ts, Options{K: 100}); err == nil {
		t.Error("K > n should error")
	}
	if _, err := TrainKMeans("m", "c", &mining.TrainSet{}, Options{K: 2}); err == nil {
		t.Error("empty set should error")
	}
	bad := &mining.TrainSet{
		Schema: value.MustSchema(value.Column{Name: "s", Kind: value.KindString}),
		Rows:   []value.Tuple{{value.Str("a")}},
		Labels: []value.Value{value.Null()},
	}
	if _, err := TrainKMeans("m", "c", bad, Options{K: 1}); err == nil {
		t.Error("non-numeric attribute should error")
	}
}

func TestCentroidCuts(t *testing.T) {
	m, _ := FromCentroids("m", "c", []string{"x"}, [][]float64{{0}, {10}, {10}, {30}}, nil)
	cuts := m.CentroidCuts(0)
	if len(cuts) != 2 || cuts[0] != 5 || cuts[1] != 20 {
		t.Errorf("cuts = %v", cuts)
	}
	lo, hi := m.DimRange(0)
	if lo != 0 || hi != 30 {
		t.Errorf("DimRange = [%g, %g]", lo, hi)
	}
}

func TestGMMSeparatesBlobs(t *testing.T) {
	ts, _ := blobs(3000, 3, 7)
	g, err := TrainGMM("g", "cluster", ts, Options{K: 3, Seed: 9, MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Mixing weights should be roughly equal (balanced blobs).
	for _, tau := range g.Mix {
		if tau < 0.15 || tau > 0.55 {
			t.Errorf("mixing weight %g far from 1/3", tau)
		}
	}
	// Points near distinct true centers must land in distinct components.
	a := g.Assign([]float64{0, 0})
	b := g.Assign([]float64{20, 30})
	c := g.Assign([]float64{40, 0})
	if a == b || b == c || a == c {
		t.Errorf("blob centers collapsed into components %d,%d,%d", a, b, c)
	}
}

func TestGMMAssignMatchesLogScore(t *testing.T) {
	g, err := FromGaussians("g", "c", []string{"x"},
		[]float64{0.5, 0.5},
		[][]float64{{0}, {10}},
		[][]float64{{1}, {25}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Wide component 1 should win far away even on component 0's side.
	if got := g.Assign([]float64{-8}); got != 1 {
		t.Errorf("Assign(-8) = %d, want 1 (wider variance)", got)
	}
	if got := g.Assign([]float64{0.5}); got != 0 {
		t.Errorf("Assign(0.5) = %d, want 0", got)
	}
	if got := g.Predict(value.Tuple{value.Float(9)}); got.AsInt() != 1 {
		t.Errorf("Predict(9) = %v", got)
	}
}

func TestFromGaussiansValidation(t *testing.T) {
	if _, err := FromGaussians("g", "c", []string{"x"}, []float64{0.5, 0.6},
		[][]float64{{0}, {1}}, [][]float64{{1}, {1}}); err == nil {
		t.Error("non-normalized mix should error")
	}
	if _, err := FromGaussians("g", "c", []string{"x"}, []float64{1},
		[][]float64{{0}}, [][]float64{{0}}); err == nil {
		t.Error("zero variance should error")
	}
	if _, err := FromGaussians("g", "c", []string{"x"}, []float64{1},
		[][]float64{{0, 1}}, [][]float64{{1, 1}}); err == nil {
		t.Error("dimensionality mismatch should error")
	}
	if _, err := FromGaussians("g", "c", []string{"x"}, nil, nil, nil); err == nil {
		t.Error("empty parameters should error")
	}
}

func TestMetadata(t *testing.T) {
	m, _ := FromCentroids("km", "cluster", []string{"x"}, [][]float64{{0}}, nil)
	if m.Name() != "km" || m.PredictColumn() != "cluster" || m.InputColumns()[0] != "x" {
		t.Error("kmeans metadata broken")
	}
	g, _ := FromGaussians("g", "cl", []string{"x"}, []float64{1}, [][]float64{{0}}, [][]float64{{1}})
	if g.Name() != "g" || g.PredictColumn() != "cl" || g.InputColumns()[0] != "x" {
		t.Error("gmm metadata broken")
	}
	if len(g.Classes()) != 1 {
		t.Error("gmm classes broken")
	}
}

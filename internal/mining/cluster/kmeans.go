// Package cluster implements the partitional clustering models of
// Section 3.3 of the paper: centroid-based clustering under a weighted
// Euclidean distance (k-means) and model-based clustering as a mixture
// of axis-aligned Gaussians (EM). Both assign a point to the cluster
// maximizing a per-dimension-additive score, which is the structural
// property internal/core exploits to derive upper envelopes through the
// same machinery as naive Bayes.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// KMeans is a centroid-based clustering model. Cluster k's score for a
// point x is -Σ_d Weights[k][d]·(x_d − Centroids[k][d])²; points go to
// the cluster with the maximum score (minimum weighted distance). Ties
// resolve to the lowest cluster id.
type KMeans struct {
	name    string
	predCol string
	cols    []string
	classes []value.Value

	// Centroids[k][d] is the center of cluster k in dimension d.
	Centroids [][]float64
	// Weights[k][d] is the per-cluster, per-dimension distance weight
	// (all 1 for plain k-means).
	Weights [][]float64
}

// Options tunes k-means training.
type Options struct {
	// K is the number of clusters (required).
	K int
	// MaxIters bounds EM/Lloyd iterations (default 50).
	MaxIters int
	// Seed makes initialization deterministic.
	Seed int64
}

func (o *Options) fill() error {
	if o.K < 1 {
		return fmt.Errorf("cluster: K must be >= 1, got %d", o.K)
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 50
	}
	return nil
}

// numericColumns returns a train set's columns as floats, NULL as 0,
// rejecting non-numeric attributes.
func numericColumns(cs *mining.Columns) ([][]float64, error) {
	cols := make([][]float64, len(cs.Cols))
	for d := range cs.Cols {
		if !cs.Cols[d].Numeric {
			return nil, fmt.Errorf("cluster: attribute %s has kind %s; clustering needs numeric attributes",
				cs.Schema.Col(d).Name, cs.Schema.Col(d).Kind)
		}
		cols[d] = cs.Cols[d].Num
	}
	return cols, nil
}

// point copies row i of cols into x and returns it.
func point(cols [][]float64, i int, x []float64) []float64 {
	for d, c := range cols {
		x[d] = c[i]
	}
	return x
}

func clusterClasses(k int) []value.Value {
	out := make([]value.Value, k)
	for i := range out {
		out[i] = value.Int(int64(i))
	}
	return out
}

// TrainKMeansColumns fits k-means with Lloyd's algorithm. Labels in the
// train set are ignored (clustering is unsupervised).
func TrainKMeansColumns(name, predCol string, cs *mining.Columns, opts Options) (*KMeans, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := cs.Len()
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty train set")
	}
	cols, err := numericColumns(cs)
	if err != nil {
		return nil, err
	}
	if opts.K > n {
		return nil, fmt.Errorf("cluster: K=%d exceeds %d points", opts.K, n)
	}
	dims := len(cols)
	buf := make([]float64, dims)
	r := rand.New(rand.NewSource(opts.Seed))
	// k-means++-style seeding: first centroid random, the rest biased
	// toward far points.
	cents := make([][]float64, 0, opts.K)
	cents = append(cents, point(cols, r.Intn(n), make([]float64, dims)))
	for len(cents) < opts.K {
		dist := make([]float64, n)
		var sum float64
		for i := range dist {
			p := point(cols, i, buf)
			best := math.Inf(1)
			for _, c := range cents {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			dist[i] = best
			sum += best
		}
		var pick int
		if sum == 0 {
			pick = r.Intn(n)
		} else {
			x := r.Float64() * sum
			for i, d := range dist {
				x -= d
				if x <= 0 {
					pick = i
					break
				}
			}
		}
		cents = append(cents, point(cols, pick, make([]float64, dims)))
	}
	assign := make([]int, n)
	for iter := 0; iter < opts.MaxIters; iter++ {
		changed := false
		for i := range assign {
			p := point(cols, i, buf)
			best, bestD := 0, math.Inf(1)
			for k, c := range cents {
				if d := sqDist(p, c); d < bestD {
					best, bestD = k, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, opts.K)
		sums := make([][]float64, opts.K)
		for k := range sums {
			sums[k] = make([]float64, dims)
		}
		for i, k := range assign {
			counts[k]++
			for d, c := range cols {
				sums[k][d] += c[i]
			}
		}
		for k := range cents {
			if counts[k] == 0 {
				// Re-seed an empty cluster at a random point.
				cents[k] = point(cols, r.Intn(n), make([]float64, dims))
				continue
			}
			for d := range cents[k] {
				cents[k][d] = sums[k][d] / float64(counts[k])
			}
		}
	}
	weights := make([][]float64, opts.K)
	for k := range weights {
		weights[k] = make([]float64, dims)
		for d := range weights[k] {
			weights[k][d] = 1
		}
	}
	return &KMeans{
		name:      name,
		predCol:   predCol,
		cols:      cs.ColumnNames(),
		classes:   clusterClasses(opts.K),
		Centroids: cents,
		Weights:   weights,
	}, nil
}

// FromCentroids builds a k-means model directly from centroids and
// optional per-cluster weights (nil means all 1).
func FromCentroids(name, predCol string, cols []string, centroids, weights [][]float64) (*KMeans, error) {
	if len(centroids) == 0 {
		return nil, fmt.Errorf("cluster: no centroids")
	}
	dims := len(centroids[0])
	if dims != len(cols) {
		return nil, fmt.Errorf("cluster: centroid has %d dims, %d columns", dims, len(cols))
	}
	for _, c := range centroids {
		if len(c) != dims {
			return nil, fmt.Errorf("cluster: ragged centroid matrix")
		}
	}
	if weights == nil {
		weights = make([][]float64, len(centroids))
		for k := range weights {
			weights[k] = make([]float64, dims)
			for d := range weights[k] {
				weights[k][d] = 1
			}
		}
	}
	if len(weights) != len(centroids) {
		return nil, fmt.Errorf("cluster: %d weight rows for %d centroids", len(weights), len(centroids))
	}
	for _, w := range weights {
		if len(w) != dims {
			return nil, fmt.Errorf("cluster: ragged weight matrix")
		}
		for _, x := range w {
			if x < 0 {
				return nil, fmt.Errorf("cluster: negative weight")
			}
		}
	}
	return &KMeans{
		name:      name,
		predCol:   predCol,
		cols:      cols,
		classes:   clusterClasses(len(centroids)),
		Centroids: centroids,
		Weights:   weights,
	}, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Name implements mining.Model.
func (m *KMeans) Name() string { return m.name }

// PredictColumn implements mining.Model.
func (m *KMeans) PredictColumn() string { return m.predCol }

// InputColumns implements mining.Model.
func (m *KMeans) InputColumns() []string { return m.cols }

// Classes implements mining.Model: cluster ids 0..K-1 as INT labels.
func (m *KMeans) Classes() []value.Value { return m.classes }

// Score returns cluster k's additive score for x (negated weighted
// squared distance); Assign maximizes it.
func (m *KMeans) Score(x []float64, k int) float64 {
	var s float64
	for d := range x {
		diff := x[d] - m.Centroids[k][d]
		s -= m.Weights[k][d] * diff * diff
	}
	return s
}

// Assign returns the cluster id for a raw point.
func (m *KMeans) Assign(x []float64) int {
	best, bestS := 0, math.Inf(-1)
	for k := range m.Centroids {
		if s := m.Score(x, k); s > bestS {
			best, bestS = k, s
		}
	}
	return best
}

// Predict implements mining.Model. It reads every input, so a NULL
// input predicts NULL.
func (m *KMeans) Predict(in value.Tuple) value.Value {
	if mining.AnyNull(in) {
		return value.Null()
	}
	x := make([]float64, len(in))
	for d, v := range in {
		x[d] = v.AsFloat()
	}
	return m.classes[m.Assign(x)]
}

// DimRange reports the span of centroid coordinates in dimension d,
// padded by the largest centroid spread; used to build envelope grids.
func (m *KMeans) DimRange(d int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for k := range m.Centroids {
		c := m.Centroids[k][d]
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return lo, hi
}

// sortedCentroidCuts returns midpoints between adjacent distinct
// centroid coordinates in dimension d — natural grid cuts for envelope
// derivation.
func (m *KMeans) sortedCentroidCuts(d int) []float64 {
	cs := make([]float64, 0, len(m.Centroids))
	for k := range m.Centroids {
		cs = append(cs, m.Centroids[k][d])
	}
	sort.Float64s(cs)
	var cuts []float64
	for i := 1; i < len(cs); i++ {
		if cs[i] != cs[i-1] {
			cuts = append(cuts, (cs[i]+cs[i-1])/2)
		}
	}
	return cuts
}

// CentroidCuts exposes sortedCentroidCuts for envelope construction.
func (m *KMeans) CentroidCuts(d int) []float64 { return m.sortedCentroidCuts(d) }

package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// GMM is a model-based clustering: a mixture of axis-aligned Gaussians.
// A point is assigned to argmax_k τ_k Π_d N(x_d; μ_kd, σ_kd²) — the
// paper's Section 3.3 model-based form, which is per-dimension additive
// in the log domain.
type GMM struct {
	name    string
	predCol string
	cols    []string
	classes []value.Value

	// Mix[k] is the mixing weight τ_k.
	Mix []float64
	// Means[k][d] and Vars[k][d] parameterize component k.
	Means [][]float64
	Vars  [][]float64
}

// minVar floors variances to keep densities finite; on integer-valued
// data EM otherwise collapses components onto single values, whose
// near-zero variances produce unusably extreme score bounds.
const minVar = 0.25

// TrainGMM fits a Gaussian mixture over a literal train set, converted
// to its columns.
func TrainGMM(name, predCol string, ts *mining.TrainSet, opts Options) (*GMM, error) {
	cs, err := ts.Columns()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return TrainGMMColumns(name, predCol, cs, opts)
}

// TrainGMMColumns fits a diagonal-covariance Gaussian mixture by EM,
// initialized from a k-means run.
func TrainGMMColumns(name, predCol string, cs *mining.Columns, opts Options) (*GMM, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	km, err := TrainKMeansColumns(name, predCol, cs, opts)
	if err != nil {
		return nil, err
	}
	cols, err := numericColumns(cs)
	if err != nil {
		return nil, err
	}
	n, k, dims := cs.Len(), opts.K, len(km.Centroids[0])
	g := &GMM{
		name:    name,
		predCol: predCol,
		cols:    cs.ColumnNames(),
		classes: clusterClasses(k),
		Mix:     make([]float64, k),
		Means:   km.Centroids,
		Vars:    make([][]float64, k),
	}
	r := rand.New(rand.NewSource(opts.Seed + 1))
	for j := range g.Vars {
		g.Mix[j] = 1 / float64(k)
		g.Vars[j] = make([]float64, dims)
		for d := range g.Vars[j] {
			g.Vars[j][d] = 1 + r.Float64()*0.01
		}
	}
	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	x := make([]float64, dims)
	for iter := 0; iter < opts.MaxIters; iter++ {
		// E step.
		for i := range resp {
			p := point(cols, i, x)
			var max float64 = math.Inf(-1)
			for j := 0; j < k; j++ {
				resp[i][j] = g.LogScore(p, j)
				if resp[i][j] > max {
					max = resp[i][j]
				}
			}
			var sum float64
			for j := 0; j < k; j++ {
				resp[i][j] = math.Exp(resp[i][j] - max)
				sum += resp[i][j]
			}
			for j := 0; j < k; j++ {
				resp[i][j] /= sum
			}
		}
		// M step.
		for j := 0; j < k; j++ {
			var nj float64
			for i := range resp {
				nj += resp[i][j]
			}
			if nj < 1e-9 {
				continue
			}
			g.Mix[j] = nj / float64(n)
			for d, c := range cols {
				var mean float64
				for i := range resp {
					mean += resp[i][j] * c[i]
				}
				mean /= nj
				var v float64
				for i := range resp {
					diff := c[i] - mean
					v += resp[i][j] * diff * diff
				}
				g.Means[j][d] = mean
				g.Vars[j][d] = math.Max(v/nj, minVar)
			}
		}
	}
	return g, nil
}

// FromGaussians builds a GMM directly from parameters.
func FromGaussians(name, predCol string, cols []string, mix []float64, means, vars [][]float64) (*GMM, error) {
	if len(mix) == 0 || len(mix) != len(means) || len(means) != len(vars) {
		return nil, fmt.Errorf("cluster: inconsistent GMM parameter shapes")
	}
	var sum float64
	for _, t := range mix {
		if t <= 0 {
			return nil, fmt.Errorf("cluster: mixing weights must be positive")
		}
		sum += t
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("cluster: mixing weights sum to %g, want 1", sum)
	}
	dims := len(cols)
	for j := range means {
		if len(means[j]) != dims || len(vars[j]) != dims {
			return nil, fmt.Errorf("cluster: component %d has wrong dimensionality", j)
		}
		for _, v := range vars[j] {
			if v <= 0 {
				return nil, fmt.Errorf("cluster: variances must be positive")
			}
		}
	}
	return &GMM{
		name: name, predCol: predCol, cols: cols,
		classes: clusterClasses(len(mix)),
		Mix:     mix, Means: means, Vars: vars,
	}, nil
}

// LogScore is log(τ_k) + Σ_d log N(x_d; μ, σ²).
func (g *GMM) LogScore(x []float64, k int) float64 {
	s := math.Log(g.Mix[k])
	for d := range x {
		diff := x[d] - g.Means[k][d]
		v := g.Vars[k][d]
		s += -0.5*diff*diff/v - 0.5*math.Log(2*math.Pi*v)
	}
	return s
}

// Assign returns the maximum-posterior component for x.
func (g *GMM) Assign(x []float64) int {
	best, bestS := 0, math.Inf(-1)
	for k := range g.Mix {
		if s := g.LogScore(x, k); s > bestS {
			best, bestS = k, s
		}
	}
	return best
}

// Name implements mining.Model.
func (g *GMM) Name() string { return g.name }

// PredictColumn implements mining.Model.
func (g *GMM) PredictColumn() string { return g.predCol }

// InputColumns implements mining.Model.
func (g *GMM) InputColumns() []string { return g.cols }

// Classes implements mining.Model.
func (g *GMM) Classes() []value.Value { return g.classes }

// Predict implements mining.Model. It reads every input, so a NULL
// input predicts NULL.
func (g *GMM) Predict(in value.Tuple) value.Value {
	if mining.AnyNull(in) {
		return value.Null()
	}
	x := make([]float64, len(in))
	for d, v := range in {
		x[d] = v.AsFloat()
	}
	return g.classes[g.Assign(x)]
}

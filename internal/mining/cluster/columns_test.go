package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// refPoints is the conversion k-means and GMM made when they read a
// literal TrainSet's rows: one float row per tuple, NULL as 0.
func refPoints(ts *mining.TrainSet) [][]float64 {
	out := make([][]float64, len(ts.Rows))
	for i, r := range ts.Rows {
		row := make([]float64, len(r))
		for d, v := range r {
			if !v.IsNull() {
				row[d] = v.AsFloat()
			}
		}
		out[i] = row
	}
	return out
}

// refKMeans is Lloyd's algorithm as it was over refPoints: the oracle
// TestTrainColumnsMatchesRows holds TrainKMeansColumns to.
func refKMeans(ts *mining.TrainSet, opts Options) [][]float64 {
	pts := refPoints(ts)
	dims := len(pts[0])
	r := rand.New(rand.NewSource(opts.Seed))
	cents := make([][]float64, 0, opts.K)
	cents = append(cents, append([]float64(nil), pts[r.Intn(len(pts))]...))
	for len(cents) < opts.K {
		dist := make([]float64, len(pts))
		var sum float64
		for i, p := range pts {
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
			pick = r.Intn(len(pts))
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
		cents = append(cents, append([]float64(nil), pts[pick]...))
	}
	assign := make([]int, len(pts))
	for iter := 0; iter < opts.MaxIters; iter++ {
		changed := false
		for i, p := range pts {
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
		for i, p := range pts {
			counts[assign[i]]++
			for d, x := range p {
				sums[assign[i]][d] += x
			}
		}
		for k := range cents {
			if counts[k] == 0 {
				cents[k] = append([]float64(nil), pts[r.Intn(len(pts))]...)
				continue
			}
			for d := range cents[k] {
				cents[k][d] = sums[k][d] / float64(counts[k])
			}
		}
	}
	return cents
}

// refGMM is EM as it was over refPoints, from refKMeans' centroids.
func refGMM(ts *mining.TrainSet, opts Options) (mix []float64, means, vars [][]float64) {
	means = refKMeans(ts, opts)
	pts := refPoints(ts)
	k, dims := opts.K, len(means[0])
	g := &GMM{Mix: make([]float64, k), Means: means, Vars: make([][]float64, k)}
	r := rand.New(rand.NewSource(opts.Seed + 1))
	for j := range g.Vars {
		g.Mix[j] = 1 / float64(k)
		g.Vars[j] = make([]float64, dims)
		for d := range g.Vars[j] {
			g.Vars[j][d] = 1 + r.Float64()*0.01
		}
	}
	resp := make([][]float64, len(pts))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	for iter := 0; iter < opts.MaxIters; iter++ {
		for i, p := range pts {
			max := math.Inf(-1)
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
		for j := 0; j < k; j++ {
			var nj float64
			for i := range pts {
				nj += resp[i][j]
			}
			if nj < 1e-9 {
				continue
			}
			g.Mix[j] = nj / float64(len(pts))
			for d := 0; d < dims; d++ {
				var mean float64
				for i, p := range pts {
					mean += resp[i][j] * p[d]
				}
				mean /= nj
				var v float64
				for i, p := range pts {
					diff := p[d] - mean
					v += resp[i][j] * diff * diff
				}
				g.Means[j][d] = mean
				g.Vars[j][d] = math.Max(v/nj, minVar)
			}
		}
	}
	return g.Mix, g.Means, g.Vars
}

// specialPoints draws rows over an INT and a FLOAT attribute around k
// centers, with NULLs in both and, when specials is set, NaN, the
// infinities and -0 among the FLOATs.
func specialPoints(r *rand.Rand, n, k int, specials bool) *mining.TrainSet {
	odd := []value.Value{value.Null(), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1))}
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "f", Kind: value.KindFloat},
	)}
	for j := 0; j < n; j++ {
		c := r.Intn(k)
		i, f := value.Int(int64(c*10+r.Intn(3))), value.Float(float64(c*5)+r.NormFloat64())
		if r.Intn(20) == 0 {
			i = value.Null()
		}
		if r.Intn(20) == 0 {
			f = value.Null()
		}
		if specials && r.Intn(40) == 0 {
			f = odd[r.Intn(len(odd))]
		}
		ts.Rows = append(ts.Rows, value.Tuple{i, f})
		ts.Labels = append(ts.Labels, value.Null())
	}
	return ts
}

// TestTrainColumnsMatchesRows: k-means and GMM trained over a set's
// columns reach, bit for bit, the centroids, weights and mixture
// parameters the row-reading trainers reach over its rows — with NULLs,
// and with NaN, the infinities and -0 among the cells.
func TestTrainColumnsMatchesRows(t *testing.T) {
	bits := func(a, b [][]float64) bool {
		return slices.EqualFunc(a, b, func(x, y []float64) bool {
			return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
		})
	}
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts := specialPoints(r, 20+r.Intn(300), 3, seed%2 == 1)
		cs, err := ts.Columns()
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{K: 1 + r.Intn(4), Seed: seed, MaxIters: 8}
		km, err := TrainKMeansColumns("km", "c", cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([][]float64, opts.K)
		for k := range ones {
			ones[k] = []float64{1, 1}
		}
		if want := refKMeans(ts, opts); !bits(km.Centroids, want) || !bits(km.Weights, ones) {
			t.Fatalf("seed %d: k-means centroids %v weights %v, want %v", seed, km.Centroids, km.Weights, want)
		}
		g, err := TrainGMMColumns("g", "c", cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		mix, means, vars := refGMM(ts, opts)
		if !bits([][]float64{g.Mix}, [][]float64{mix}) || !bits(g.Means, means) || !bits(g.Vars, vars) {
			t.Fatalf("seed %d: GMM mix %v means %v vars %v, want %v %v %v", seed, g.Mix, g.Means, g.Vars, mix, means, vars)
		}
	}
}

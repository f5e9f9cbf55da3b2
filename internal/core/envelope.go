package core

import (
	"fmt"
	"time"

	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
)

// Derivation is the result of precomputing all per-class upper
// envelopes for one model — the "atomic" envelopes Section 4.2 computes
// at training time and caches for query optimization.
type Derivation struct {
	// Envelopes maps class-label key (value.Value.String()) to the
	// envelope predicate for "PredictColumn = class".
	Envelopes map[string]expr.Expr
	// Exact reports whether the envelopes are exact (decision trees).
	Exact bool
	// Elapsed is the wall time the derivation took (the Section 5
	// overhead experiment compares it against training time).
	Elapsed time.Duration
}

// clusterBins is the number of interval members per dimension of a
// clustering model's grid.
const clusterBins = 16

// UpperEnvelopes derives the per-class upper envelopes for any
// supported model family, dispatching on the concrete type:
//
//   - *dtree.Model: exact path extraction (Section 3.1)
//   - *rules.Model: disjunction of rule bodies (Section 3.1)
//   - *nbayes.Model: top-down algorithm over the probability grid
//     (Section 3.2)
//   - *cluster.KMeans, *cluster.GMM: top-down algorithm over the
//     interval score grid (Section 3.3)
func UpperEnvelopes(m mining.Model, opts Options) (*Derivation, error) {
	opts.fill()
	start := time.Now()
	out := &Derivation{Envelopes: make(map[string]expr.Expr, len(m.Classes()))}
	switch x := m.(type) {
	case *dtree.Model:
		out.Exact = true
		for _, c := range x.Classes() {
			out.Envelopes[c.String()] = TreeEnvelope(x, c, opts.MaxDisjuncts)
		}
	case *rules.Model:
		for _, c := range x.Classes() {
			out.Envelopes[c.String()] = RulesEnvelope(x, c, opts.MaxDisjuncts)
		}
	case *nbayes.Model:
		g := GridFromNaiveBayes(x)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		for k, c := range g.Classes {
			out.Envelopes[c.String()] = GridEnvelope(g, k, opts)
		}
	case *cluster.KMeans:
		g := GridFromKMeans(x, clusterBins)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		for k, c := range g.Classes {
			out.Envelopes[c.String()] = GridEnvelope(g, k, opts)
		}
	case *cluster.GMM:
		g := GridFromGMM(x, clusterBins)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		for k, c := range g.Classes {
			out.Envelopes[c.String()] = GridEnvelope(g, k, opts)
		}
	default:
		return nil, fmt.Errorf("core: no envelope derivation for model type %T", m)
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

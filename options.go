package minequery

import "fmt"

// QueryOption adjusts one Query, Prepare, or Execute call. Options are
// the single per-call knob surface: the same set is accepted by
// Engine.Query (all options), Engine.Prepare (plan-shaping options:
// WithForcedPath, WithBaseline), and Prepared.Execute (execution
// options: WithDOP, WithAnalyze, WithNoFallback, WithPartialAggs).
type QueryOption func(*queryConfig) error

// queryConfig is the resolved option set for one call.
type queryConfig struct {
	baseline    bool
	dop         int
	forcedPath  string
	analyze     bool
	noFallback  bool
	partialAggs bool
}

func buildQueryConfig(opts []QueryOption) (queryConfig, error) {
	var qc queryConfig
	for _, o := range opts {
		if err := o(&qc); err != nil {
			return queryConfig{}, err
		}
	}
	return qc, nil
}

// WithBaseline runs the query without envelope optimization: mining
// predicates are evaluated as black-box filters after the prediction
// join, the paper's unoptimized evaluation strategy.
func WithBaseline() QueryOption {
	return func(qc *queryConfig) error {
		qc.baseline = true
		return nil
	}
}

// WithDOP overrides the engine's degree of parallelism for this call
// only (n <= 0 keeps the engine default). Results are identical at any
// DOP; only the scan fan-out changes.
func WithDOP(n int) QueryOption {
	return func(qc *queryConfig) error {
		qc.dop = n
		return nil
	}
}

// WithForcedPath pins the access path, overriding the cost-based
// choice. The only supported forced path is "seqscan" (a filtered
// sequential scan); "" keeps the optimizer's choice.
func WithForcedPath(path string) QueryOption {
	return func(qc *queryConfig) error {
		switch path {
		case "", "seqscan":
			qc.forcedPath = path
			return nil
		default:
			return fmt.Errorf("minequery: unsupported forced path %q (want \"seqscan\" or \"\")", path)
		}
	}
}

// WithNoFallback disables graceful degradation for this call: if the
// optimized index path fails with a transient error that survives the
// retry layer, the error is returned instead of re-running the query on
// the baseline sequential scan. Useful in tests that must observe the
// raw failure, and for callers that prefer fail-fast over a possibly
// much slower degraded execution.
func WithNoFallback() QueryOption {
	return func(qc *queryConfig) error {
		qc.noFallback = true
		return nil
	}
}

// WithPartialAggs runs an aggregate query in partial mode: the engine
// executes everything below the final aggregate — scan, envelope
// filter, prediction joins, residual filter, and the partial
// accumulation — but skips finalization, returning the order-independent
// partial state in Result.PartialAgg (Result.Rows is nil). A
// coordinator merges the wires of several peers with Table.MergeWire
// and finalizes once, which is exactly how the cluster scatter-gathers
// GROUP BY across shards without shipping rows. Non-aggregate queries
// fail with ErrUnsupportedQuery.
func WithPartialAggs() QueryOption {
	return func(qc *queryConfig) error {
		qc.partialAggs = true
		return nil
	}
}

// WithAnalyze enables envelope-pruning attribution for this execution:
// every row a filter rejects is re-checked against the un-augmented
// predicate, splitting rejections into envelope-pruned vs residual.
// The split appears in Result.Analyze (and EXPLAIN ANALYZE output); it
// costs one extra predicate evaluation per rejected row, which is why
// it is opt-in rather than part of the always-on instrumentation.
func WithAnalyze() QueryOption {
	return func(qc *queryConfig) error {
		qc.analyze = true
		return nil
	}
}

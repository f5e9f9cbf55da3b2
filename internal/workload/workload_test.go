package workload

import (
	"strings"
	"testing"

	"minequery/internal/dataset"
)

// smallCfg keeps the unit-test runs fast; full-scale runs live in
// cmd/experiments and bench_test.go.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.TestRows = 5000
	return cfg
}

func TestRunDecisionTreeShuttle(t *testing.T) {
	res, err := Run(dataset.ByName("Shuttle"), KindDecisionTree, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 7 {
		t.Fatalf("got %d queries, want 7 (one per class)", len(res.Queries))
	}
	if res.PlanChangedFraction() == 0 {
		t.Error("decision-tree workload should change at least one plan")
	}
	var reduction float64
	for _, q := range res.Queries {
		reduction += q.Reduction()
	}
	if reduction <= 0 {
		t.Error("decision-tree workload should reduce running cost on average")
	}
	for _, q := range res.Queries {
		// Tree envelopes are exact: envelope selectivity equals the
		// model's prediction selectivity.
		if diff := q.EnvSelectivity - q.OrigSelectivity; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("class %v: tree envelope not exact (orig %.5f env %.5f)",
				q.Class, q.OrigSelectivity, q.EnvSelectivity)
		}
		if q.EnvCost > q.ScanCost*1.05 {
			t.Errorf("class %v: envelope query (%f) costlier than scan (%f)", q.Class, q.EnvCost, q.ScanCost)
		}
	}
	if len(res.Indexes) == 0 {
		t.Error("tuner should have produced a physical design")
	}
}

func TestRunNaiveBayesEnvelopeSoundness(t *testing.T) {
	res, err := Run(dataset.ByName("Balance-Scale"), KindNaiveBayes, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Queries {
		// Upper envelope: selectivity can only exceed the original.
		if q.EnvSelectivity+1e-9 < q.OrigSelectivity {
			t.Errorf("class %v: envelope (%.5f) below original (%.5f) — unsound",
				q.Class, q.EnvSelectivity, q.OrigSelectivity)
		}
	}
}

func TestRunClusteringProducesQueries(t *testing.T) {
	res, err := Run(dataset.ByName("Balance-Scale"), KindClustering, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 5 {
		t.Fatalf("got %d queries, want 5 (one per cluster)", len(res.Queries))
	}
	var total float64
	for _, q := range res.Queries {
		total += q.OrigSelectivity
		if q.EnvSelectivity+1e-9 < q.OrigSelectivity {
			t.Errorf("cluster %v: envelope below original", q.Class)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("cluster selectivities sum to %f, want 1 (partitional)", total)
	}
}

func TestRunRulesAndKMeansKinds(t *testing.T) {
	for _, kind := range []ModelKind{KindRules, KindKMeans} {
		res, err := Run(dataset.ByName("Balance-Scale"), kind, smallCfg())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Queries) == 0 {
			t.Fatalf("%s: no queries", kind)
		}
	}
}

func TestRunUnknownKind(t *testing.T) {
	if _, err := Run(dataset.ByName("Diabetes"), ModelKind("nope"), smallCfg()); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestOverheadFieldsPopulated(t *testing.T) {
	res, err := Run(dataset.ByName("Diabetes"), KindDecisionTree, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainTime <= 0 || res.EnvelopeTime < 0 || res.OptimizeTime < 0 {
		t.Errorf("overhead timings not populated: %+v", res)
	}
	// The §5 claim for trees: derivation is cheap relative to training.
	if res.EnvelopeTime > res.TrainTime {
		t.Errorf("tree envelope derivation (%v) slower than training (%v)",
			res.EnvelopeTime, res.TrainTime)
	}
}

func TestQueryResultReduction(t *testing.T) {
	q := QueryResult{ScanCost: 200, EnvCost: 50}
	if q.Reduction() != 75 {
		t.Errorf("Reduction = %f, want 75", q.Reduction())
	}
	zero := QueryResult{}
	if zero.Reduction() != 0 {
		t.Error("zero scan cost should report 0 reduction")
	}
}

func TestPaperKindsNames(t *testing.T) {
	kinds := PaperKinds()
	if len(kinds) != 3 {
		t.Fatal("paper evaluates three families")
	}
	joined := ""
	for _, k := range kinds {
		joined += string(k) + ","
	}
	for _, want := range []string{"dtree", "nbayes", "cluster"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing kind %s in %s", want, joined)
		}
	}
}

// Package workload drives the paper's Section 5 experiments: for a
// (data set, mining model) pair it builds the test table, trains the
// model, precomputes upper envelopes, lets the tuner generate a physical
// design for the envelope-query workload, and then measures — per class —
// the envelope query against a full table scan, recording running cost,
// plan changes, and selectivities. The aggregations in cmd/experiments
// and bench_test.go turn these records into the paper's tables and
// figures.
package workload

import (
	"context"
	"fmt"
	"time"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/dataset"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/opt"
	"minequery/internal/plan"
	"minequery/internal/tuner"
	"minequery/internal/value"
)

// ModelKind selects the mining model family under test.
type ModelKind string

// The model families of the paper's experiments (decision tree, naive
// Bayes, clustering) plus the rule-list and GMM extensions.
const (
	KindDecisionTree ModelKind = "dtree"
	KindNaiveBayes   ModelKind = "nbayes"
	KindClustering   ModelKind = "cluster"
	KindKMeans       ModelKind = "kmeans"
	KindRules        ModelKind = "rules"
)

// PaperKinds are the three families evaluated in the paper.
func PaperKinds() []ModelKind {
	return []ModelKind{KindDecisionTree, KindNaiveBayes, KindClustering}
}

// Config tunes an experiment run.
type Config struct {
	// TestRows is the test-table size (the paper used >1M; the default
	// 40000 preserves selectivities at a laptop-friendly scale).
	TestRows int
	// DOP is the scan degree of parallelism for query execution and
	// costing (<=0: serial), so the paper's experiments can be rerun at
	// DOP 1 vs N.
	DOP int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{TestRows: 40000}
}

// QueryResult records one class's envelope-query measurement.
type QueryResult struct {
	Dataset string
	Kind    ModelKind
	Class   value.Value
	// OrigSelectivity is the fraction of test rows the model predicts
	// as the class; EnvSelectivity the fraction satisfying the envelope
	// predicate (Figure 7's two axes).
	OrigSelectivity float64
	EnvSelectivity  float64
	// ScanCost and EnvCost are the simulated running costs (cost units)
	// of the full scan and of the envelope query; ScanTime and EnvTime
	// the wall-clock analogues.
	ScanCost, EnvCost float64
	ScanTime, EnvTime time.Duration
	// PlanChanged is the paper's plan-change condition; AccessPath the
	// chosen path.
	PlanChanged bool
	AccessPath  string
	// Disjuncts is the envelope's disjunct count (complexity metric).
	Disjuncts int
	Envelope  string
}

// Reduction is the percentage running-cost reduction versus the scan.
func (q *QueryResult) Reduction() float64 {
	if q.ScanCost <= 0 {
		return 0
	}
	return 100 * (q.ScanCost - q.EnvCost) / q.ScanCost
}

// Result is one (data set, model) experiment.
type Result struct {
	Dataset string
	Kind    ModelKind
	// TrainTime and EnvelopeTime support the Section 5 overhead
	// experiment: envelope precomputation should be a small fraction of
	// training.
	TrainTime    time.Duration
	EnvelopeTime time.Duration
	// OptimizeTime and LookupTime compare query-optimization cost with
	// and without envelope lookup (the second overhead claim).
	OptimizeTime time.Duration
	LookupTime   time.Duration
	Queries      []QueryResult
	// Indexes lists the physical design the tuner produced.
	Indexes []string
}

// PlanChangedFraction is the fraction of queries whose plan changed.
func (r *Result) PlanChangedFraction() float64 {
	if len(r.Queries) == 0 {
		return 0
	}
	n := 0
	for _, q := range r.Queries {
		if q.PlanChanged {
			n++
		}
	}
	return float64(n) / float64(len(r.Queries))
}

// AvgReduction averages the per-query cost reductions.
func (r *Result) AvgReduction() float64 {
	if len(r.Queries) == 0 {
		return 0
	}
	var s float64
	for _, q := range r.Queries {
		s += q.Reduction()
	}
	return s / float64(len(r.Queries))
}

// train fits the requested model family on the spec's training set.
func train(spec *dataset.Spec, kind ModelKind) (mining.Model, error) {
	cs := spec.TrainColumns()
	switch kind {
	case KindDecisionTree:
		// Bound leaf size like C4.5's pruning would: huge trees produce
		// envelope DNFs past the optimizer's disjunct threshold.
		minLeaf := cs.Len() / 200
		if minLeaf < 2 {
			minLeaf = 2
		}
		return dtree.TrainColumns("m_"+spec.Name, "pred", cs, dtree.Options{MaxDepth: 10, MinLeaf: minLeaf})
	case KindNaiveBayes:
		// Like MLC++ pipelines, select features before naive Bayes: keep
		// the leading attributes. Classes whose signal lies outside the
		// selected features collapse toward the prior and may never be
		// predicted — their envelopes become NULL and plan as constant
		// scans, a case the paper explicitly reports.
		return nbayes.TrainColumns("m_"+spec.Name, "pred", projectInputs(cs, nbayesDims), nbayes.Options{})
	case KindClustering:
		// The paper's clustering substrate (Analysis Server) is
		// EM-based model clustering; the mixture components' differing
		// variances give compact per-cluster assignment regions, unlike
		// sharp k-means Voronoi splits of a single dense blob.
		return cluster.TrainGMMColumns("m_"+spec.Name, "pred", clusterInputs(cs), cluster.Options{K: spec.Clusters, Seed: 42, MaxIters: 15})
	case KindKMeans:
		return cluster.TrainKMeansColumns("m_"+spec.Name, "pred", clusterInputs(cs), cluster.Options{K: spec.Clusters, Seed: 42})
	case KindRules:
		return rules.TrainColumns("m_"+spec.Name, "pred", cs, rules.Options{})
	default:
		return nil, fmt.Errorf("workload: unknown model kind %q", kind)
	}
}

// clusterDims caps the number of attributes the clustering models
// consume: like a practitioner selecting features before clustering,
// the experiment clusters on the leading attributes. Beyond a handful
// of dimensions, axis-aligned envelopes of cluster assignment regions
// degrade for any derivation algorithm (DESIGN.md §4b item 7).
const clusterDims = 5

// nbayesDims caps naive Bayes input width (feature selection).
const nbayesDims = 8

// maxIndexes bounds the tuner's physical design.
const maxIndexes = 16

// clusterInputs projects a train set onto its leading attributes.
func clusterInputs(cs *mining.Columns) *mining.Columns {
	return projectInputs(cs, clusterDims)
}

// projectInputs projects a train set onto its n leading attributes,
// sharing its columns and labels.
func projectInputs(cs *mining.Columns, n int) *mining.Columns {
	if n >= len(cs.Cols) {
		return cs
	}
	out := *cs
	out.Schema = value.MustSchema(cs.Schema.Columns[:n]...)
	out.Cols = cs.Cols[:n]
	return &out
}

// Run executes the experiment for one (data set, model kind) pair.
func Run(spec *dataset.Spec, kind ModelKind, cfg Config) (*Result, error) {
	if cfg.TestRows <= 0 {
		cfg.TestRows = DefaultConfig().TestRows
	}
	optCfg := opt.DefaultConfig()
	if cfg.DOP > 0 {
		optCfg.DOP = cfg.DOP
	}
	cat := catalog.New()
	table, err := cat.CreateTable(spec.Name, spec.Schema())
	if err != nil {
		return nil, err
	}
	var insertErr error
	spec.TestRows(cfg.TestRows, func(row value.Tuple) {
		if insertErr == nil {
			_, insertErr = table.Insert(row)
		}
	})
	if insertErr != nil {
		return nil, insertErr
	}

	trainStart := time.Now()
	model, err := train(spec, kind)
	if err != nil {
		return nil, err
	}
	trainTime := time.Since(trainStart)

	der, err := core.UpperEnvelopes(model, core.Options{})
	if err != nil {
		return nil, err
	}
	cat.RegisterModel(model, der.Envelopes)
	res := &Result{
		Dataset:      spec.Name,
		Kind:         kind,
		TrainTime:    trainTime,
		EnvelopeTime: der.Elapsed,
	}

	// Physical design: tune for the envelope-query workload.
	table.Analyze()
	var preds []expr.Expr
	for _, c := range model.Classes() {
		if env, ok := der.Envelopes[c.String()]; ok {
			preds = append(preds, env)
		}
	}
	cands := tuner.Recommend(table, preds, maxIndexes)
	names, err := tuner.Apply(cat, spec.Name, cands)
	if err != nil {
		return nil, err
	}
	res.Indexes = names
	table.Analyze()

	// Ground-truth selectivities in one pass: model predictions and
	// envelope matches per class.
	binding, ok := mining.Bind(model, table.Schema)
	if !ok {
		return nil, fmt.Errorf("workload: model %s does not bind to %s", model.Name(), spec.Name)
	}
	classes := model.Classes()
	predCount := make(map[string]int64, len(classes))
	envCount := make(map[string]int64, len(classes))
	total := int64(0)
	buf := make(value.Tuple, len(model.InputColumns()))
	if _, err := exec.Drain(context.Background(), cat, &plan.SeqScan{Table: spec.Name}, exec.Options{}, eachBatch(func(batch exec.Batch) {
		for _, row := range batch {
			total++
			predCount[binding.PredictInto(row, buf).String()]++
			for _, c := range classes {
				if env, ok := der.Envelopes[c.String()]; ok && env.Eval(table.Schema, row) {
					envCount[c.String()]++
				}
			}
		}
	})); err != nil {
		return nil, err
	}

	// Per-class measurements.
	for _, c := range classes {
		env, ok := der.Envelopes[c.String()]
		if !ok {
			continue
		}
		q, err := measure(cat, table, env, optCfg)
		if err != nil {
			return nil, err
		}
		q.Dataset = spec.Name
		q.Kind = kind
		q.Class = c
		q.OrigSelectivity = float64(predCount[c.String()]) / float64(total)
		q.EnvSelectivity = float64(envCount[c.String()]) / float64(total)
		q.Envelope = env.String()
		q.Disjuncts = countDisjuncts(env)
		res.Queries = append(res.Queries, *q)
	}

	// Overhead: optimization time with envelope lookup vs the bare
	// access-path selection on TRUE (no mining predicate).
	optStart := time.Now()
	for _, c := range classes {
		if env, ok := der.Envelopes[c.String()]; ok {
			opt.ChooseAccessPath(table, env, optCfg)
		}
	}
	res.OptimizeTime = time.Since(optStart)
	lookupStart := time.Now()
	me, _ := cat.Model(model.Name())
	for _, c := range classes {
		me.Envelope(c)
	}
	res.LookupTime = time.Since(lookupStart)
	return res, nil
}

// measure runs the envelope query and the baseline scan, returning the
// per-query record (costs in simulated units using the optimizer's
// weights, like the paper's running-time comparison against SELECT *).
func measure(cat *catalog.Catalog, table *catalog.Table, env expr.Expr, cfg opt.Config) (*QueryResult, error) {
	// Envelope query: SELECT * FROM T WHERE <env>.
	r := opt.ChooseAccessPath(table, env, cfg)
	envCost, envTime, err := runAndCost(cat, r.Plan, cfg)
	if err != nil {
		return nil, err
	}
	// Baseline: SELECT * FROM T.
	scanCost, scanTime, err := runAndCost(cat, &plan.SeqScan{Table: table.Name}, cfg)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		ScanCost:    scanCost,
		EnvCost:     envCost,
		ScanTime:    scanTime,
		EnvTime:     envTime,
		PlanChanged: plan.Changed(r.Plan),
		AccessPath:  plan.PathOf(r.Plan).String(),
	}, nil
}

// eachBatch is the exec.RowSink of a scan that is run once and read in
// place: there is no earlier attempt whose rows Begin would have to void.
type eachBatch func(exec.Batch)

func (eachBatch) Begin() {}

func (f eachBatch) Batch(b exec.Batch) error {
	f(b)
	return nil
}

// runAndCost runs root once and prices what it read with cfg's weights.
func runAndCost(cat *catalog.Catalog, root plan.Node, cfg opt.Config) (float64, time.Duration, error) {
	col := exec.NewCollector()
	start := time.Now()
	if _, err := exec.Drain(context.Background(), cat, root, exec.Options{DOP: cfg.DOP, Collector: col}, exec.Discard); err != nil {
		return 0, 0, err
	}
	return cfg.Cost(col.IO.Snapshot()), time.Since(start), nil
}

func countDisjuncts(e expr.Expr) int {
	if _, ok := e.(expr.FalseExpr); ok {
		return 0
	}
	if o, ok := e.(expr.Or); ok {
		return len(o.Kids)
	}
	return 1
}

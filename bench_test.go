// Benchmarks regenerating the paper's tables and figures (one bench per
// experiment; see DESIGN.md's per-experiment index) plus the ablation
// benches for the design choices DESIGN.md calls out. Each workload
// bench reports the paper's metrics with testing.B custom metrics:
// avg % cost reduction (table A), % plans changed (table B), and — for
// the overhead experiment — the derive/train time ratio.
package minequery

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/dataset"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/mining"
	"minequery/internal/mining/nbayes"
	"minequery/internal/opt"
	"minequery/internal/plan"
	"minequery/internal/value"
	"minequery/internal/workload"
)

// benchRows keeps benchmark tables small enough for -bench=. sweeps; use
// cmd/experiments for the full-scale runs.
const benchRows = 8000

// benchSpecs is the subset of Table 2 exercised by the per-family
// benches: one small, one multi-class, one wide data set.
func benchSpecs() []*dataset.Spec {
	return []*dataset.Spec{
		dataset.ByName("Balance-Scale"),
		dataset.ByName("Shuttle"),
		dataset.ByName("Chess"),
	}
}

// runFamily drives the Section 5 experiment for one model family and
// reports the paper's two headline metrics.
func runFamily(b *testing.B, kind workload.ModelKind) {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.TestRows = benchRows
	var redSum, chgSum float64
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		redSum, chgSum = 0, 0
		n = 0
		for _, spec := range benchSpecs() {
			res, err := workload.Run(spec, kind, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range res.Queries {
				redSum += q.Reduction()
				if q.PlanChanged {
					chgSum++
				}
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(redSum/float64(n), "avg-reduction-%")
		b.ReportMetric(100*chgSum/float64(n), "plans-changed-%")
	}
}

// BenchmarkRuntimeReductionDecisionTree regenerates the decision-tree
// column of Section 5.2.1 table A (and Figure 3's per-data-set rows).
func BenchmarkRuntimeReductionDecisionTree(b *testing.B) {
	runFamily(b, workload.KindDecisionTree)
}

// BenchmarkRuntimeReductionNaiveBayes regenerates the naive Bayes column
// of table A (and Figure 4).
func BenchmarkRuntimeReductionNaiveBayes(b *testing.B) {
	runFamily(b, workload.KindNaiveBayes)
}

// BenchmarkRuntimeReductionClustering regenerates the clustering column
// of table A (and Figure 5).
func BenchmarkRuntimeReductionClustering(b *testing.B) {
	runFamily(b, workload.KindClustering)
}

// BenchmarkPlanChange regenerates Section 5.2.1 table B across all three
// families on the bench subset.
func BenchmarkPlanChange(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.TestRows = benchRows
	var changed, n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changed, n = 0, 0
		for _, spec := range benchSpecs() {
			for _, kind := range workload.PaperKinds() {
				res, err := workload.Run(spec, kind, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, q := range res.Queries {
					if q.PlanChanged {
						changed++
					}
					n++
				}
			}
		}
	}
	if n > 0 {
		b.ReportMetric(100*float64(changed)/float64(n), "plans-changed-%")
	}
}

// BenchmarkSelectivityBuckets regenerates Figure 6's bucketing: it
// reports the average reduction for queries under 10% envelope
// selectivity versus at-or-above (the figure's key contrast).
func BenchmarkSelectivityBuckets(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.TestRows = benchRows
	var loSum, hiSum float64
	var loN, hiN int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loSum, hiSum = 0, 0
		loN, hiN = 0, 0
		for _, spec := range benchSpecs() {
			for _, kind := range workload.PaperKinds() {
				res, err := workload.Run(spec, kind, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, q := range res.Queries {
					if q.EnvSelectivity < 0.10 {
						loSum += q.Reduction()
						loN++
					} else {
						hiSum += q.Reduction()
						hiN++
					}
				}
			}
		}
	}
	if loN > 0 {
		b.ReportMetric(loSum/float64(loN), "reduction-below-10%-sel")
	}
	if hiN > 0 {
		b.ReportMetric(hiSum/float64(hiN), "reduction-above-10%-sel")
	}
}

// BenchmarkTable2DatasetGen measures the synthetic generators behind
// Table 2 (rows generated per second across all ten specs).
func BenchmarkTable2DatasetGen(b *testing.B) {
	specs := dataset.Table2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			n := 0
			s.TestRows(2000, func(value.Tuple) { n++ })
			if n != 2000 {
				b.Fatal("short generation")
			}
		}
	}
}

// BenchmarkEnvelopeDerivationTree measures exact tree-envelope
// extraction (the training-time precompute of Section 4.2) and reports
// the derive/train ratio the overhead experiment claims is negligible.
func BenchmarkEnvelopeDerivationTree(b *testing.B) {
	benchDerivation(b, workload.KindDecisionTree)
}

// BenchmarkEnvelopeDerivationBayes measures top-down derivation for
// naive Bayes models.
func BenchmarkEnvelopeDerivationBayes(b *testing.B) {
	benchDerivation(b, workload.KindNaiveBayes)
}

func benchDerivation(b *testing.B, kind workload.ModelKind) {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.TestRows = 2000 // derivation cost does not depend on the test table
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(dataset.ByName("Shuttle"), kind, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TrainTime > 0 {
			ratio = float64(res.EnvelopeTime) / float64(res.TrainTime)
		}
	}
	b.ReportMetric(ratio, "derive/train-ratio")
}

// BenchmarkOptimizeOverhead measures access-path selection over an
// envelope-augmented predicate (the §4.2 claim that envelope lookup adds
// little to optimization).
func BenchmarkOptimizeOverhead(b *testing.B) {
	table, env := benchEnvelopeFixture(b)
	cfg := opt.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ChooseAccessPath(table, env, cfg)
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// ablationGrid builds a naive Bayes grid for the ablations.
func ablationGrid(b *testing.B) *core.Grid {
	b.Helper()
	spec := dataset.ByName("Balance-Scale")
	m, err := nbayes.TrainColumns("m", "p", spec.TrainColumns(), nbayes.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return core.GridFromNaiveBayes(m)
}

// BenchmarkK2ExactBounds contrasts the paper's simple bounds with the
// Lemma 3.2 ratio bounds on a two-class model.
func BenchmarkK2ExactBounds(b *testing.B) {
	spec := dataset.ByName("Diabetes")
	m, err := nbayes.TrainColumns("m", "p", spec.TrainColumns(), nbayes.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := core.GridFromNaiveBayes(m)
	for _, bk := range []struct {
		name string
		kind core.BoundsKind
	}{{"simple", core.BoundsSimple}, {"ratio", core.BoundsRatio}} {
		b.Run(bk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TopDownEnvelope(g, 1, core.Options{MaxExpansions: 256, Bounds: bk.kind}, nil)
			}
		})
	}
}

// BenchmarkShrinkAblation measures Algorithm 1 with and without the
// Shrink step.
func BenchmarkShrinkAblation(b *testing.B) {
	g := ablationGrid(b)
	for _, shrink := range []bool{true, false} {
		name := "with-shrink"
		if !shrink {
			name = "no-shrink"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TopDownEnvelope(g, 0, core.Options{MaxExpansions: 512, DisableShrink: !shrink}, nil)
			}
		})
	}
}

// BenchmarkDisjunctThreshold sweeps the §4.2 disjunct budget.
func BenchmarkDisjunctThreshold(b *testing.B) {
	g := ablationGrid(b)
	for _, max := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.GridEnvelope(g, 0, core.Options{MaxExpansions: 512, MaxDisjuncts: max})
			}
		})
	}
}

// BenchmarkAccessPathCrossover sweeps predicate selectivity across the
// scan/index crossover and reports the fraction of plans that chose an
// index (expected: 1 at low selectivity, 0 at high).
func BenchmarkAccessPathCrossover(b *testing.B) {
	table, _ := benchEnvelopeFixture(b)
	cfg := opt.DefaultConfig()
	for _, hi := range []int64{0, 2, 12, 49} { // sel ~2%, 6%, 26%, 100%
		b.Run(fmt.Sprintf("hi=%d", hi), func(b *testing.B) {
			pred := expr.Cmp{Col: "num", Op: expr.OpLe, Val: value.Int(hi)}
			indexed := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := opt.ChooseAccessPath(table, pred, cfg)
				if res.Path == plan.AccessSeqScan {
					indexed = 0
				} else {
					indexed = 1
				}
			}
			b.ReportMetric(indexed, "index-chosen")
		})
	}
}

// BenchmarkQueryEndToEnd measures full Query latency on the root API for
// an envelope-optimized mining query versus the black-box baseline.
func BenchmarkQueryEndToEnd(b *testing.B) {
	eng := seedEngine(b, 20000)
	trainNB(b, eng)
	if err := eng.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		b.Fatal(err)
	}
	if err := eng.Analyze("customers"); err != nil {
		b.Fatal(err)
	}
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(context.Background(), nbQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(context.Background(), nbQuery, WithBaseline()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelSeqScan contrasts the serial sequential scan with the
// morsel-driven parallel scan (DOP 2..8) on a large synthetic table,
// through a full scan-filter-project plan. Every sub-bench asserts the
// same output row count: morsel reassembly is order-preserving, so DOP
// must not change results. On a multi-core machine the DOP >= 4 rows
// beat dop=1; with a single core the win shrinks to pipelining overlap.
func BenchmarkParallelSeqScan(b *testing.B) {
	cat, table, want := parallelScanFixture(b)
	root := &plan.Filter{
		Child: &plan.SeqScan{Table: table.Name},
		Pred:  expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(25)},
	}
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			opts := exec.Options{DOP: dop}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := exec.RunOpts(cat, root, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != want {
					b.Fatalf("dop=%d returned %d rows, serial scan returns %d", dop, len(rows), want)
				}
			}
			b.ReportMetric(float64(want), "rows")
		})
	}
}

var (
	parallelFixtureOnce  sync.Once
	parallelFixtureCat   *catalog.Catalog
	parallelFixtureTable *catalog.Table
	parallelFixtureWant  int
)

// parallelScanFixture builds (once) a 200k-row three-column table and
// the expected match count for the scan benchmark's filter.
func parallelScanFixture(b *testing.B) (*catalog.Catalog, *catalog.Table, int) {
	b.Helper()
	parallelFixtureOnce.Do(func() {
		cat := catalog.New()
		table, err := cat.CreateTable("parscan", value.MustSchema(
			value.Column{Name: "num", Kind: value.KindInt},
			value.Column{Name: "aux", Kind: value.KindFloat},
			value.Column{Name: "tag", Kind: value.KindString},
		))
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(53))
		want := 0
		for i := 0; i < 200000; i++ {
			num := int64(r.Intn(50))
			if num >= 25 {
				want++
			}
			_, err := table.Insert(value.Tuple{
				value.Int(num),
				value.Float(r.Float64()),
				value.Str(fmt.Sprintf("tag-%04d", r.Intn(2000))),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		parallelFixtureCat, parallelFixtureTable, parallelFixtureWant = cat, table, want
	})
	return parallelFixtureCat, parallelFixtureTable, parallelFixtureWant
}

// --- bench fixtures ---

// benchEnvelopeFixture builds a 20k-row table with a num column uniform
// over [0, 50), a secondary index on it, and a trained naive Bayes
// envelope predicate over the same data, for the optimizer benches.
func benchEnvelopeFixture(b *testing.B) (*catalog.Table, expr.Expr) {
	b.Helper()
	cat := catalog.New()
	table, err := cat.CreateTable("bench", value.MustSchema(
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "aux", Kind: value.KindInt},
		value.Column{Name: "label", Kind: value.KindString},
	))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	ts := &mining.TrainSet{Schema: value.MustSchema(
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "aux", Kind: value.KindInt},
	)}
	for i := 0; i < 20000; i++ {
		num, aux := int64(r.Intn(50)), int64(r.Intn(8))
		label := "common"
		if num < 2 && aux >= 6 {
			label = "rare"
		}
		row := value.Tuple{value.Int(num), value.Int(aux), value.Str(label)}
		if _, err := table.Insert(row); err != nil {
			b.Fatal(err)
		}
		if i < 3000 {
			ts.Rows = append(ts.Rows, row[:2])
			ts.Labels = append(ts.Labels, row[2])
		}
	}
	if _, err := cat.CreateIndex("ix_num_aux", "bench", "num", "aux"); err != nil {
		b.Fatal(err)
	}
	table.Analyze()
	m, err := nbayes.Train("bm", "label", ts, nbayes.Options{})
	if err != nil {
		b.Fatal(err)
	}
	der, err := core.UpperEnvelopes(m, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	env, ok := der.Envelopes[value.Str("rare").String()]
	if !ok {
		b.Fatal("missing envelope")
	}
	return table, env
}

// Command experiments regenerates every table and figure of the paper's
// Section 5 evaluation against the minequery engine:
//
//	table2     — the data-set summary (paper's Table 2)
//	runtime    — avg % reduction in running cost per model family
//	planchange — % of queries whose physical plan changed per family
//	fig3/4/5   — per-data-set plan-change fractions (DT / NB / clustering)
//	fig6       — avg % reduction bucketed by selectivity
//	fig7       — scatter of original vs envelope selectivity (NB + clustering)
//	overhead   — envelope precompute time vs training time; optimize vs lookup
//	scan       — morsel-driven parallel scan sweep: wall time at DOP 1..N
//	partition  — partition pruning: pages read with vs without pruning per predicate width
//	all        — everything above (except scan and partition, which are standalone)
//
// Shapes, not absolute numbers, are the comparison target: the engine is
// a simulator, not the paper's SQL Server testbed. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"minequery/internal/catalog"
	"minequery/internal/dataset"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/opt"
	"minequery/internal/plan"
	"minequery/internal/value"
	"minequery/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2|runtime|planchange|fig3|fig4|fig5|fig6|fig7|overhead|scan|partition|all")
	rows := flag.Int("rows", 40000, "test-table rows per data set (paper: >1M; selectivities are scale-invariant)")
	only := flag.String("dataset", "", "restrict to one data set (by name)")
	dop := flag.Int("dop", 1, "scan degree of parallelism for execution and costing (rerun any experiment at DOP 1 vs N)")
	flag.Parse()

	if *exp == "scan" {
		scanSweep(*rows)
		return
	}
	if *exp == "partition" {
		partitionBench(*rows)
		return
	}

	specs := dataset.Table2()
	if *only != "" {
		s := dataset.ByName(*only)
		if s == nil {
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *only)
			os.Exit(1)
		}
		specs = []*dataset.Spec{s}
	}

	if *exp == "table2" || *exp == "all" {
		table2(specs)
	}
	needRuns := map[string]bool{
		"runtime": true, "planchange": true, "fig3": true, "fig4": true,
		"fig5": true, "fig6": true, "fig7": true, "overhead": true, "all": true,
	}
	if !needRuns[*exp] {
		return
	}

	cfg := workload.DefaultConfig()
	cfg.TestRows = *rows
	cfg.DOP = *dop
	results := runAll(specs, cfg)

	switch *exp {
	case "runtime":
		runtimeTable(results)
	case "planchange":
		planChangeTable(results)
	case "fig3":
		perDatasetFigure(results, workload.KindDecisionTree, "Figure 3: plan impact per data set (decision tree)")
	case "fig4":
		perDatasetFigure(results, workload.KindNaiveBayes, "Figure 4: plan impact per data set (naive Bayes)")
	case "fig5":
		perDatasetFigure(results, workload.KindClustering, "Figure 5: plan impact per data set (clustering)")
	case "fig6":
		figure6(results)
	case "fig7":
		figure7(results)
	case "overhead":
		overheadTable(results)
	case "all":
		runtimeTable(results)
		planChangeTable(results)
		perDatasetFigure(results, workload.KindDecisionTree, "Figure 3: plan impact per data set (decision tree)")
		perDatasetFigure(results, workload.KindNaiveBayes, "Figure 4: plan impact per data set (naive Bayes)")
		perDatasetFigure(results, workload.KindClustering, "Figure 5: plan impact per data set (clustering)")
		figure6(results)
		figure7(results)
		overheadTable(results)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

// scanSweep measures the morsel-driven parallel sequential scan: one
// large synthetic table, a full-scan-plus-filter plan, executed at
// increasing DOP. Row counts must be identical at every DOP (the
// morsel reassembly is order-preserving); wall time should fall until
// the worker count passes the machine's core count.
func scanSweep(rows int) {
	fmt.Printf("== Morsel-driven parallel scan sweep (%d rows, GOMAXPROCS=%d) ==\n",
		rows, runtime.GOMAXPROCS(0))
	cat := catalog.New()
	table, err := cat.CreateTable("sweep", value.MustSchema(
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "aux", Kind: value.KindFloat},
		value.Column{Name: "tag", Kind: value.KindString},
	))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < rows; i++ {
		_, err := table.Insert(value.Tuple{
			value.Int(int64(r.Intn(1000))),
			value.Float(r.Float64()),
			value.Str(fmt.Sprintf("tag-%03d", r.Intn(500))),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	root := &plan.Filter{
		Child: &plan.SeqScan{Table: "sweep"},
		Pred:  expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(500)},
	}
	fmt.Printf("%6s %12s %12s %10s\n", "dop", "rows-out", "pages-read", "elapsed")
	dops := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		dops = append(dops, n)
	}
	for _, dop := range dops {
		col := exec.NewCollector()
		start := time.Now()
		out, _, err := exec.RunOpts(cat, root, exec.Options{DOP: dop, Collector: col})
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%6d %12d %12d %10v\n", dop, len(out), col.IO.SeqPageReads.Load(), elapsed.Round(time.Microsecond))
	}
	fmt.Println()
}

// partitionBench measures envelope-driven partition pruning: one
// 16-partition table, range predicates of shrinking width (the shapes
// upper envelopes produce), each executed twice — through the
// optimizer's pruned plan and through a forced unpruned full scan —
// recording sequential pages read for both. The pages-read ratio should
// track the fraction of partitions surviving pruning, which is the
// entire point of the feature: I/O eliminated before any page is read.
func partitionBench(rows int) {
	fmt.Printf("== Partition pruning: pages read with vs without pruning (%d rows, 16 partitions) ==\n", rows)
	cat := catalog.New()
	bounds := make([]value.Value, 0, 15)
	for b := int64(64); b < 1024; b += 64 {
		bounds = append(bounds, value.Int(b))
	}
	table, err := cat.CreatePartitionedTable("pt", value.MustSchema(
		value.Column{Name: "num", Kind: value.KindInt},
		value.Column{Name: "aux", Kind: value.KindFloat},
		value.Column{Name: "tag", Kind: value.KindString},
	), "num", bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < rows; i++ {
		_, err := table.Insert(value.Tuple{
			value.Int(int64(r.Intn(1024))),
			value.Float(r.Float64()),
			value.Str(fmt.Sprintf("tag-%03d", r.Intn(500))),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if _, err := cat.Analyze("pt"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	preds := []struct {
		label string
		pred  expr.Expr
	}{
		{"num >= 0 (all)", expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(0)}},
		{"num < 512 (half)", expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(512)}},
		{"num in [256,384)", expr.NewAnd(
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(256)},
			expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(384)})},
		{"num in [0,64) or [960,∞)", expr.NewOr(
			expr.Cmp{Col: "num", Op: expr.OpLt, Val: value.Int(64)},
			expr.Cmp{Col: "num", Op: expr.OpGe, Val: value.Int(960)})},
		{"num = 100 (point)", expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(100)}},
	}
	pages := func(root plan.Node) (int64, int) {
		col := exec.NewCollector()
		out, _, err := exec.RunOpts(cat, root, exec.Options{DOP: 1, Collector: col})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return col.IO.SeqPageReads.Load(), len(out)
	}
	fmt.Printf("%-26s %10s %14s %16s %10s\n", "predicate", "parts", "pages(pruned)", "pages(unpruned)", "saved")
	cfg := opt.DefaultConfig()
	for _, p := range preds {
		res := opt.ChooseAccessPath(table, p.pred, cfg)
		prunedPages, prunedRows := pages(res.Plan)
		fullPages, fullRows := pages(&plan.Filter{Child: &plan.SeqScan{Table: "pt"}, Pred: p.pred})
		if prunedRows != fullRows {
			fmt.Fprintf(os.Stderr, "ROW MISMATCH for %s: pruned %d vs full %d\n", p.label, prunedRows, fullRows)
			os.Exit(1)
		}
		saved := 0.0
		if fullPages > 0 {
			saved = 100 * float64(fullPages-prunedPages) / float64(fullPages)
		}
		fmt.Printf("%-26s %7d/%-2d %14d %16d %9.1f%%\n",
			p.label, res.PartsTotal-res.PartsPruned, res.PartsTotal, prunedPages, fullPages, saved)
	}
	fmt.Println()
}

func table2(specs []*dataset.Spec) {
	fmt.Println("== Table 2: summary of data sets ==")
	fmt.Printf("%-14s %12s %13s %8s %9s %6s %7s\n",
		"Data Set", "Test size(M)", "Training size", "#classes", "#clusters", "#attrs", "style")
	for _, s := range specs {
		style := "numeric"
		if s.Style == dataset.StyleCategorical {
			style = "categor"
		}
		fmt.Printf("%-14s %12.2f %13d %8d %9d %6d %7s\n",
			s.Name, s.PaperTestMillions, s.TrainRows, s.Classes, s.Clusters, len(s.Attrs), style)
	}
	fmt.Println()
}

func runAll(specs []*dataset.Spec, cfg workload.Config) []*workload.Result {
	var out []*workload.Result
	for _, spec := range specs {
		for _, kind := range workload.PaperKinds() {
			fmt.Fprintf(os.Stderr, "running %s / %s ...\n", spec.Name, kind)
			res, err := workload.Run(spec, kind, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "  FAILED: %v\n", err)
				continue
			}
			out = append(out, res)
		}
	}
	return out
}

func kindLabel(k workload.ModelKind) string {
	switch k {
	case workload.KindDecisionTree:
		return "Decision Tree"
	case workload.KindNaiveBayes:
		return "Naive Bayes"
	case workload.KindClustering:
		return "Clustering"
	}
	return string(k)
}

func byKind(results []*workload.Result) map[workload.ModelKind][]*workload.Result {
	m := map[workload.ModelKind][]*workload.Result{}
	for _, r := range results {
		m[r.Kind] = append(m[r.Kind], r)
	}
	return m
}

func runtimeTable(results []*workload.Result) {
	fmt.Println("== Section 5.2.1 table A: average % reduction in running cost vs full scan ==")
	fmt.Println("(paper: Decision Tree 73.7%, Naive Bayes 63.5%, Clustering 79.0%)")
	m := byKind(results)
	for _, k := range workload.PaperKinds() {
		var sum float64
		var n int
		for _, r := range m[k] {
			for _, q := range r.Queries {
				sum += q.Reduction()
				n++
			}
		}
		if n > 0 {
			fmt.Printf("%-14s %6.1f%%  (over %d queries)\n", kindLabel(k), sum/float64(n), n)
		}
	}
	fmt.Println()
}

func planChangeTable(results []*workload.Result) {
	fmt.Println("== Section 5.2.1 table B: % of queries whose physical plan changed ==")
	fmt.Println("(paper: Decision Tree 72.7%, Naive Bayes 75.3%, Clustering 76.6%)")
	m := byKind(results)
	for _, k := range workload.PaperKinds() {
		changed, n := 0, 0
		for _, r := range m[k] {
			for _, q := range r.Queries {
				if q.PlanChanged {
					changed++
				}
				n++
			}
		}
		if n > 0 {
			fmt.Printf("%-14s %6.1f%%  (%d of %d queries)\n", kindLabel(k), 100*float64(changed)/float64(n), changed, n)
		}
	}
	fmt.Println()
}

func perDatasetFigure(results []*workload.Result, kind workload.ModelKind, title string) {
	fmt.Println("== " + title + " ==")
	var rows []*workload.Result
	for _, r := range results {
		if r.Kind == kind {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Dataset < rows[j].Dataset })
	for _, r := range rows {
		frac := r.PlanChangedFraction()
		bar := strings.Repeat("#", int(frac*40+0.5))
		fmt.Printf("%-14s %5.1f%% %s\n", r.Dataset, 100*frac, bar)
	}
	fmt.Println()
}

// fig6Buckets are the selectivity buckets of the paper's Figure 6.
var fig6Buckets = []struct {
	label string
	hi    float64
}{
	{"<0.1%", 0.001},
	{"0.1-1%", 0.01},
	{"1-10%", 0.1},
	{">=10%", 1.01},
}

func figure6(results []*workload.Result) {
	fmt.Println("== Figure 6: running-cost reduction vs selectivity (all models & data sets) ==")
	type agg struct {
		sum float64
		n   int
	}
	orig := make([]agg, len(fig6Buckets))
	env := make([]agg, len(fig6Buckets))
	bucket := func(s float64) int {
		for i, b := range fig6Buckets {
			if s < b.hi {
				return i
			}
		}
		return len(fig6Buckets) - 1
	}
	for _, r := range results {
		for _, q := range r.Queries {
			bo := bucket(q.OrigSelectivity)
			be := bucket(q.EnvSelectivity)
			orig[bo].sum += q.Reduction()
			orig[bo].n++
			env[be].sum += q.Reduction()
			env[be].n++
		}
	}
	fmt.Printf("%-8s %22s %22s\n", "bucket", "avg red (orig sel)", "avg red (env sel)")
	for i, b := range fig6Buckets {
		om, em := 0.0, 0.0
		if orig[i].n > 0 {
			om = orig[i].sum / float64(orig[i].n)
		}
		if env[i].n > 0 {
			em = env[i].sum / float64(env[i].n)
		}
		fmt.Printf("%-8s %15.1f%% (n=%2d) %15.1f%% (n=%2d)\n", b.label, om, orig[i].n, em, env[i].n)
	}
	fmt.Println()
}

func figure7(results []*workload.Result) {
	fmt.Println("== Figure 7: tightness of approximation (naive Bayes and clustering) ==")
	fmt.Printf("%-14s %-8s %-16s %12s %12s\n", "dataset", "model", "class", "orig sel", "env sel")
	for _, r := range results {
		if r.Kind == workload.KindDecisionTree {
			continue // tree envelopes are exact; the paper omits them too
		}
		for _, q := range r.Queries {
			fmt.Printf("%-14s %-8s %-16s %12.5f %12.5f\n",
				q.Dataset, q.Kind, q.Class, q.OrigSelectivity, q.EnvSelectivity)
		}
	}
	fmt.Println()
}

func overheadTable(results []*workload.Result) {
	fmt.Println("== Section 5 overhead experiment ==")
	fmt.Println("(paper: envelope precompute is a negligible fraction of training;")
	fmt.Println(" envelope lookup is insignificant vs query optimization)")
	fmt.Printf("%-14s %-8s %12s %12s %10s %12s %12s\n",
		"dataset", "model", "train", "derive", "derive/train", "optimize", "lookup")
	for _, r := range results {
		ratio := "n/a"
		if r.TrainTime > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(r.EnvelopeTime)/float64(r.TrainTime))
		}
		fmt.Printf("%-14s %-8s %12v %12v %10s %12v %12v\n",
			r.Dataset, r.Kind, r.TrainTime.Round(1e5), r.EnvelopeTime.Round(1e5), ratio,
			r.OptimizeTime.Round(1e5), r.LookupTime.Round(1e4))
	}
	fmt.Println()
}

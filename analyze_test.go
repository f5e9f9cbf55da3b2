package minequery

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/analyze")

// analyzeFixture is the shared engine for golden tests: seeded data,
// one trained model, two indexes — enough to exercise every access
// path. Everything about it is deterministic (fixed rand seed, fixed
// insertion order), which is what makes byte-exact goldens possible.
func analyzeFixture(t testing.TB) *Engine {
	t.Helper()
	e := seedEngine(t, 20000)
	trainNB(t, e)
	if err := e.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("ix_income", "customers", "income"); err != nil {
		t.Fatal(err)
	}
	if err := e.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExplainAnalyzeGolden locks the rendered EXPLAIN ANALYZE output
// for each access path at DOP 1 and 4. Timings and the per-worker
// morsel distribution are elided by Render(true); everything else —
// operator tree, estimated and actual rows, batch counts, rejection
// attribution, leaf I/O, worker count — must be byte-identical across
// runs and platforms. Regenerate with: go test -run Golden -update .
func TestExplainAnalyzeGolden(t *testing.T) {
	e := analyzeFixture(t)
	cases := []struct {
		name     string
		sql      string
		wantPath string
	}{
		{"seqscan", strings.Replace(nbQuery, "'vip'", "'budget'", 1), "seqscan"},
		{"index", nbQuery, "index"},
		{"index_union", "SELECT id FROM customers WHERE income = 7 AND (age = 0 OR age = 9)", "index-union"},
		{"constant", strings.Replace(nbQuery, "'vip'", "'martian'", 1), "constant"},
	}
	for _, tc := range cases {
		for _, dop := range []int{1, 4} {
			name := fmt.Sprintf("%s_dop%d", tc.name, dop)
			t.Run(name, func(t *testing.T) {
				res, err := e.Query(context.Background(), tc.sql, WithAnalyze(), WithDOP(dop))
				if err != nil {
					t.Fatal(err)
				}
				if res.AccessPath != tc.wantPath {
					t.Fatalf("access path = %s, want %s\n%s", res.AccessPath, tc.wantPath, res.Plan)
				}
				if res.Report() == nil {
					t.Fatal("no analyze report")
				}
				got := res.Report().Render(true)
				path := filepath.Join("testdata", "analyze", name+".golden")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got != string(want) {
					t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}

// TestExplainAnalyzeColumnarGolden locks the rendered EXPLAIN ANALYZE
// output for columnar executions: the storage-format line, the frozen
// term order of the fused scan-filter, and every term's evaluated and
// rejected counters. The counters are deterministic at any DOP because
// the adaptive-ordering warmup runs serially and the frozen evaluation
// is schedule-independent; timings are elided as usual. Regenerate
// with: go test -run Golden -update .
func TestExplainAnalyzeColumnarGolden(t *testing.T) {
	e := analyzeFixture(t)
	if err := e.EnableColumnar("customers"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sql  string
	}{
		// Envelope-carrying mining query whose class region is wide
		// enough that the optimizer scans: the envelope filter fuses into
		// the columnar scan.
		{"col_seqscan", strings.Replace(nbQuery, "'vip'", "'budget'", 1)},
		// Wide data disjunction: exercises the adaptive OR ordering with
		// four terms of very different selectivity.
		{"col_disjuncts", `SELECT id FROM customers WHERE age >= 8 OR income <= 1 OR visits >= 90 OR age = 5`},
		// Conjunction: adaptive AND ordering, most-rejecting term first.
		{"col_conjuncts", `SELECT id FROM customers WHERE age >= 2 AND income <= 6 AND visits >= 10`},
		// The aggregate goldens' queries on the sidecar: the grouped filter
		// feeds the accumulators straight from the selection vector, and
		// the mining query runs col_seqscan's operators under the
		// aggregate, with col_seqscan's counters.
		{"col_agg_group", aggGroupQuery},
		{"col_agg_pred", aggPredQuery},
	}
	for _, tc := range cases {
		for _, dop := range []int{1, 4} {
			name := fmt.Sprintf("%s_dop%d", tc.name, dop)
			t.Run(name, func(t *testing.T) {
				res, err := e.Query(context.Background(), tc.sql, WithAnalyze(), WithDOP(dop))
				if err != nil {
					t.Fatal(err)
				}
				if res.StorageFormat != "columnar" {
					t.Fatalf("storage format = %q, want columnar\n%s", res.StorageFormat, res.Plan)
				}
				if res.Report() == nil {
					t.Fatal("no analyze report")
				}
				got := res.Report().Render(true)
				path := filepath.Join("testdata", "analyze", name+".golden")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got != string(want) {
					t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}

// TestExplainAnalyzeDOPInvariant holds every golden pair to the claim
// that the operator counters do not depend on the DOP: X_dop1.golden and
// X_dop4.golden must be equal once the lines only a parallel run prints —
// the worker count and the partial-merge count — are dropped.
func TestExplainAnalyzeDOPInvariant(t *testing.T) {
	serial, err := filepath.Glob(filepath.Join("testdata", "analyze", "*_dop1.golden"))
	if err != nil || len(serial) == 0 {
		t.Fatalf("no DOP-1 goldens: %v", err)
	}
	strip := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b2 strings.Builder
		for _, line := range strings.SplitAfter(string(b), "\n") {
			if !strings.HasPrefix(line, "workers:") && !strings.HasPrefix(line, "aggregate: partial_merges=") {
				b2.WriteString(line)
			}
		}
		return b2.String()
	}
	for _, one := range serial {
		four := strings.TrimSuffix(one, "_dop1.golden") + "_dop4.golden"
		if a, b := strip(one), strip(four); a != b {
			t.Errorf("%s and %s differ beyond the parallel-only lines:\n--- dop 1 ---\n%s--- dop 4 ---\n%s", one, four, a, b)
		}
	}
}

// TestExplainAnalyzeGoldenStable runs each golden case twice and
// demands identical output — the determinism property the goldens rely
// on, checked directly so a flaky report fails here with a clear
// message rather than as a mysterious golden diff.
func TestExplainAnalyzeGoldenStable(t *testing.T) {
	e := analyzeFixture(t)
	sql := strings.Replace(nbQuery, "'vip'", "'budget'", 1)
	for _, dop := range []int{1, 4} {
		var first string
		for i := 0; i < 2; i++ {
			res, err := e.Query(context.Background(), sql, WithAnalyze(), WithDOP(dop))
			if err != nil {
				t.Fatal(err)
			}
			got := res.Report().Render(true)
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("dop %d: report not stable across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", dop, first, got)
			}
		}
	}
}

// Row-vs-columnar scan-filter benchmarks: the same disjunctive
// predicate executed through the row-at-a-time batch filter and through
// the vectorized column-group path with adaptive term ordering, at 1, 4,
// and 16 disjuncts, for a quick local look at the columnar speedup on
// wide disjunctions (go test -run '^$' -bench ScanFilter -benchmem .).
// Figures to quote come from the bench/ harness's scan_columnar
// workload.
package minequery

import (
	"fmt"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/plan"
	"minequery/internal/value"
)

// benchColRows sizes the scan-filter benchmark table: large enough that
// per-tuple dispatch dominates the row path, small enough for -bench
// sweeps.
const benchColRows = 50000

// benchColDB builds a deterministic two-int-column table with the
// columnar sidecar fresh.
func benchColDB(b *testing.B) (*catalog.Catalog, *catalog.Table) {
	b.Helper()
	cc := catalog.New()
	tb, err := cc.CreateTable("bt", value.MustSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "num", Kind: value.KindInt},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchColRows; i++ {
		if _, err := tb.Insert(value.Tuple{
			value.Int(int64(i % 997)), value.Int(int64(i % 100)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tb.Analyze(); err != nil {
		b.Fatal(err)
	}
	if err := tb.EnableColumnar(); err != nil {
		b.Fatal(err)
	}
	return cc, tb
}

// disjuncts builds an n-term OR over the benchmark table's columns with
// deliberately uneven selectivities, so adaptive ordering has something
// to exploit.
func disjuncts(n int) expr.Expr {
	kids := make([]expr.Expr, n)
	for i := range kids {
		if i%2 == 0 {
			kids[i] = expr.Cmp{Col: "a", Op: expr.OpEq, Val: value.Int(int64(i * 13))}
		} else {
			kids[i] = expr.Cmp{Col: "num", Op: expr.OpEq, Val: value.Int(int64(90 + i%10))}
		}
	}
	if n == 1 {
		return kids[0]
	}
	return expr.Or{Kids: kids}
}

func benchScanFilter(b *testing.B, nTerms int, columnar bool) {
	cc, tb := benchColDB(b)
	pred := disjuncts(nTerms)
	p := &plan.Filter{
		Child: &plan.SeqScan{Table: tb.Name, Columnar: columnar},
		Pred:  pred,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := exec.RunOpts(cc, p, exec.Options{DOP: 1, BatchSize: 256})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("benchmark predicate selected no rows")
		}
	}
}

func BenchmarkScanFilterRow(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("disjuncts=%d", n), func(b *testing.B) {
			benchScanFilter(b, n, false)
		})
	}
}

func BenchmarkScanFilterColumnar(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("disjuncts=%d", n), func(b *testing.B) {
			benchScanFilter(b, n, true)
		})
	}
}

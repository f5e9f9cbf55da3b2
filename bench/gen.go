package main

// Seeded input generation. Everything the engine sees — rows, query
// constants, op order — is drawn from one *rand.Rand per purpose, each
// derived from the run's -seed, so a seed fixes the inputs exactly and
// a different seed changes all of them. What a seed must not change is
// how much work a pass is, or ten seeds would measure ten workloads:
// the label rules are fixed functions of the attributes (no label
// noise), so the trained models have the same structure on every seed,
// and the attributes the predicates select on are dealt, not drawn
// (balanced below), so a predicate selects the same number of rows
// wherever the seed puts its constants.

import (
	"fmt"
	"math/rand"
	"strings"

	"minequery"
)

// balanced deals n values from [0, domain) in a seeded order, every value
// the same number of times (to within one, the seed choosing which, when
// domain does not divide n).
func balanced(r *rand.Rand, n, domain int) []int64 {
	deck := r.Perm(domain)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(deck[i%domain])
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Attribute domains of the customers table. age × income is the indexed
// grid (6400 cells, one row per cell at the benchmark's 6400 rows);
// visits × tier feeds the naive Bayes model and carries no index, so its
// envelopes can only ever filter a sequential scan.
const (
	ageDomain    = 80
	incomeDomain = 80
	visitsDomain = 20
	tierDomain   = 5
	regionDomain = 8
)

func custSchema() *minequery.Schema {
	return minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "income", Kind: minequery.KindInt},
		minequery.Column{Name: "visits", Kind: minequery.KindInt},
		minequery.Column{Name: "tier", Kind: minequery.KindInt},
		minequery.Column{Name: "region", Kind: minequery.KindString},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
		minequery.Column{Name: "risk", Kind: minequery.KindString},
	)
}

// riskOf is the decision-tree label: two small axis-aligned boxes of the
// age × income grid and a large remainder.
func riskOf(age, income int64) string {
	switch {
	case age < 4 && income >= incomeDomain-5:
		return "high" // 20 of 6400 cells: 0.3% of rows
	case age >= 60 && income < 10:
		return "elevated" // 200 cells: 3.1%
	}
	return "low"
}

// segmentOf is the naive Bayes label over visits × tier.
func segmentOf(visits, tier int64) string {
	switch {
	case visits >= 16 && tier >= 3:
		return "vip" // 8% of rows
	case visits < 4:
		return "budget" // 20%
	}
	return "regular"
}

// genCustomers deals n customers rows: the age × income cells and the
// visits × tier cells are balanced, each on its own.
func genCustomers(r *rand.Rand, n int) []minequery.Tuple {
	grid := balanced(r, n, ageDomain*incomeDomain)
	vt := balanced(r, n, visitsDomain*tierDomain)
	rows := make([]minequery.Tuple, n)
	for i := range rows {
		age, income := grid[i]/incomeDomain, grid[i]%incomeDomain
		visits, tier := vt[i]/tierDomain, vt[i]%tierDomain
		rows[i] = minequery.Tuple{
			minequery.Int(int64(i)),
			minequery.Int(age),
			minequery.Int(income),
			minequery.Int(visits),
			minequery.Int(tier),
			minequery.Str(fmt.Sprintf("r%d", r.Intn(regionDomain))),
			minequery.Str(segmentOf(visits, tier)),
			minequery.Str(riskOf(age, income)),
		}
	}
	return rows
}

const (
	joinRisk = ` PREDICTION JOIN riskmodel AS r ON r.age = customers.age AND r.income = customers.income`
	joinSeg  = ` PREDICTION JOIN segmodel AS s ON s.visits = customers.visits AND s.tier = customers.tier`
)

// sqlList renders ints as a SQL IN list body.
func sqlList(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ", ")
}

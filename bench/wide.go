package main

// scan_columnar: prepared statements over a column-group table larger
// than the CPU caches. The wide-OR filters follow the regime of
// "Optimizing Query Predicates with Disjunctions for Column-Oriented
// Engines" (PAPERS.md): many cheap equality disjuncts of uneven
// selectivity, where term ordering and — later — zone maps and
// dictionary codes decide the scan's cost.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"minequery"
)

// Domains of the wide table's filter columns: a is nearly unique per
// value (16 rows of 160k), num is 10x denser, so an OR mixing both has
// terms of uneven selectivity for the adaptive ordering to exploit.
const (
	wideADomain   = 10000
	wideNumDomain = 1000
	wideCDomain   = 50
)

func wideSchema() *minequery.Schema {
	return minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "a", Kind: minequery.KindInt},
		minequery.Column{Name: "num", Kind: minequery.KindInt},
		minequery.Column{Name: "c", Kind: minequery.KindInt},
		minequery.Column{Name: "visits", Kind: minequery.KindInt},
		minequery.Column{Name: "tier", Kind: minequery.KindInt},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
	)
}

// genWide deals n wide rows: a and num are balanced each on its own, c
// together with visits × tier, so that the envelope filter's "vip AND
// c = k" selects the same number of rows for every k.
func genWide(r *rand.Rand, n int) []minequery.Tuple {
	a := balanced(r, n, wideADomain)
	num := balanced(r, n, wideNumDomain)
	const vtCells = visitsDomain * tierDomain
	cvt := balanced(r, n, wideCDomain*vtCells)
	rows := make([]minequery.Tuple, n)
	for i := range rows {
		c, vt := cvt[i]/vtCells, cvt[i]%vtCells
		visits, tier := vt/tierDomain, vt%tierDomain
		rows[i] = minequery.Tuple{
			minequery.Int(int64(i)),
			minequery.Int(a[i]),
			minequery.Int(num[i]),
			minequery.Int(c),
			minequery.Int(visits),
			minequery.Int(tier),
			minequery.Str(segmentOf(visits, tier)),
		}
	}
	return rows
}

// wideOr renders an n-term disjunction alternating the sparse and the
// dense column, constants drawn from r.
func wideOr(r *rand.Rand, n int) string {
	terms := make([]string, n)
	for i := range terms {
		if i%2 == 0 {
			terms[i] = fmt.Sprintf("wide.a = %d", r.Intn(wideADomain))
		} else {
			terms[i] = fmt.Sprintf("wide.num = %d", r.Intn(wideNumDomain))
		}
	}
	return strings.Join(terms, " OR ")
}

// groupByWindow aggregates a fifth of the a domain, wherever the seed
// puts it: the same share of the rows on every seed.
func groupByWindow(r *rand.Rand) string {
	lo := r.Intn(wideADomain * 4 / 5)
	return fmt.Sprintf(`SELECT tier, count(*), sum(num) FROM wide WHERE wide.a >= %d AND wide.a < %d GROUP BY tier`, lo, lo+wideADomain/5)
}

func setupScanColumnar(seed int64, sz sizes) (fixture, map[string]float64, error) {
	ph := phaseTimer{}
	rows := genWide(rand.New(rand.NewSource(seed)), sz.wideRows)
	eng := minequery.New()
	eng.SetDOP(1)
	if err := eng.CreateTable("wide", wideSchema()); err != nil {
		return nil, nil, err
	}
	t := time.Now()
	if err := eng.InsertBatch("wide", rows); err != nil {
		return nil, nil, err
	}
	ph["storage.load_rows_per_s"] = float64(len(rows)) / time.Since(t).Seconds()
	mi, err := eng.TrainNaiveBayes("widemodel", "segment", "wide", []string{"visits", "tier"}, "segment", minequery.BayesOptions{})
	if err != nil {
		return nil, nil, err
	}
	ph.model("nbayes", mi)
	t = time.Now()
	if err := eng.Analyze("wide"); err != nil {
		return nil, nil, err
	}
	ph["catalog.analyze_ms"] = ms(time.Since(t))
	t = time.Now()
	if err := eng.EnableColumnar("wide"); err != nil {
		return nil, nil, err
	}
	ph["catalog.columnar_build_ms"] = ms(time.Since(t))
	ph.finish()

	const join = ` PREDICTION JOIN widemodel AS s ON s.visits = wide.visits AND s.tier = wide.tier`
	r := rand.New(rand.NewSource(seed + 3))
	shapes := []*scanShape{
		{name: "or_1", layerKey: "vec.execute_us.d1", sql: `SELECT id, a, num FROM wide WHERE ` + wideOr(r, 1)},
		{name: "or_4", layerKey: "vec.execute_us.d4", sql: `SELECT id, a, num FROM wide WHERE ` + wideOr(r, 4)},
		{name: "or_16", layerKey: "vec.execute_us.d16", sql: `SELECT id, a, num FROM wide WHERE ` + wideOr(r, 16)},
		{name: "nb_envelope", sql: `SELECT id, visits, tier FROM wide` + join +
			fmt.Sprintf(` WHERE s.segment = 'vip' AND wide.c = %d`, r.Intn(wideCDomain))},
		{name: "group_by", sql: groupByWindow(r)},
	}
	node := newNode(eng, rows)
	if err := prepareShapes(node.h, shapes); err != nil {
		return nil, nil, err
	}
	return &scanFx{node: node, shapes: shapes, ops: sz.colOps, columnar: true}, ph, nil
}

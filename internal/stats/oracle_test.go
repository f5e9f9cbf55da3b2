package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"minequery/internal/value"
)

// oracleBuilder is the column builder as it was before spilling went
// typed: every non-NULL Value is kept, and a spilled column's histogram
// comes from sorting those Values with value.Compare. Build must give
// the statistics it gives.
type oracleBuilder struct {
	exact    map[string][]ValueCount
	overflow []value.Value
	distinct int
	count    int64
	nulls    int64
	spilled  bool
}

func (b *oracleBuilder) add(v value.Value) {
	if v.IsNull() {
		b.nulls++
		return
	}
	b.count++
	b.overflow = append(b.overflow, v)
	if b.spilled {
		return
	}
	h := string(v.SortKey(nil))
	chain := b.exact[h]
	for i := range chain {
		if value.Equal(chain[i].Val, v) {
			chain[i].Count++
			return
		}
	}
	b.exact[h] = append(chain, ValueCount{Val: v, Count: 1})
	b.distinct++
	if b.distinct > MaxExactDistinct {
		b.spilled = true
	}
}

func (b *oracleBuilder) finish() *ColumnStats {
	cs := &ColumnStats{Count: b.count, NullCount: b.nulls}
	if !b.spilled {
		for _, chain := range b.exact {
			cs.Exact = append(cs.Exact, chain...)
		}
		sort.Slice(cs.Exact, func(i, j int) bool {
			return value.Compare(cs.Exact[i].Val, cs.Exact[j].Val) < 0
		})
		cs.Distinct = int64(len(cs.Exact))
		return cs
	}
	vals := b.overflow
	sort.Slice(vals, func(i, j int) bool { return value.Compare(vals[i], vals[j]) < 0 })
	for i := range vals {
		if i == 0 || !value.Equal(vals[i], vals[i-1]) {
			cs.Distinct++
		}
	}
	per := (len(vals) + NumBuckets - 1) / NumBuckets
	for start := 0; start < len(vals); start += per {
		end := min(start+per, len(vals))
		cs.Hist = append(cs.Hist, Bucket{Lo: vals[start], Hi: vals[end-1], Count: int64(end - start)})
	}
	return cs
}

func oracleBuild(schema *value.Schema, rows []value.Tuple) *TableStats {
	builders := make([]*oracleBuilder, schema.Len())
	for i := range builders {
		builders[i] = &oracleBuilder{exact: make(map[string][]ValueCount)}
	}
	for _, t := range rows {
		for i := range builders {
			builders[i].add(t[i])
		}
	}
	ts := &TableStats{RowCount: int64(len(rows)), Cols: make(map[string]*ColumnStats, schema.Len())}
	for i, b := range builders {
		ts.Cols[normalize(schema.Col(i).Name)] = b.finish()
	}
	return ts
}

// fuzzSchema has a column of every kind a table stores.
var fuzzSchema = value.MustSchema(
	value.Column{Name: "i", Kind: value.KindInt},
	value.Column{Name: "f", Kind: value.KindFloat},
	value.Column{Name: "s", Kind: value.KindString},
	value.Column{Name: "b", Kind: value.KindBool},
)

// The values a column mixes in among its ordinary ones: the extremes of
// each kind, and for FLOAT the pairs value.Compare ties (±0, NaNs of
// different payloads).
var specials = [][]value.Value{
	{value.Int(math.MinInt64), value.Int(math.MaxInt64), value.Int(0), value.Int(-1)},
	{value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000abc)),
		value.Float(math.Copysign(0, -1)), value.Float(0),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1))},
	{value.Str(""), value.Str("\x00"), value.Str("a")},
	{value.Bool(false), value.Bool(true)},
}

// fuzzRows deals rows rows over fuzzSchema. Row k holds the (k mod
// distinct)-th ordinary value of each column, the rows are shuffled by
// seed, and then a cell is NULL with probability nullPct/100 and, when
// mix is set, one of the column's specials with probability 1/8. With
// no NULLs and no specials, a column of rows >= distinct holds exactly
// distinct values (BOOL two).
func fuzzRows(seed int64, rows, distinct int, nullPct int, mix bool) []value.Tuple {
	r := rand.New(rand.NewSource(seed))
	step := int64(1 + r.Intn(1<<20)) // INT spacing: dense ranges and sparse ones
	out := make([]value.Tuple, rows)
	for k := range out {
		x := k % distinct
		out[k] = value.Tuple{
			value.Int(int64(x)*step - step*int64(distinct)/2),
			value.Float(float64(x)*0.5 - 3),
			value.Str("v" + strconv.Itoa(x)),
			value.Bool(x%2 == 1),
		}
	}
	r.Shuffle(rows, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, t := range out {
		for c := range t {
			switch {
			case r.Intn(100) < nullPct:
				t[c] = value.Null()
			case mix && r.Intn(8) == 0:
				t[c] = specials[c][r.Intn(len(specials[c]))]
			}
		}
	}
	return out
}

// checkMatchesOracle builds rows with Build and with the oracle and
// requires every column's statistics to be the same, with one exception:
// a FLOAT bucket bound may be another member of a pair value.Compare
// ties (±0, NaN payloads), since which member a sort puts at a bucket's
// edge is the sort's choice. Counts and distinct counts are exact. It
// returns Build's statistics.
func checkMatchesOracle(t *testing.T, rows []value.Tuple) *TableStats {
	t.Helper()
	got := Build(fuzzSchema, int64(len(rows)), func(emit func(value.Tuple)) {
		for _, r := range rows {
			emit(r)
		}
	})
	want := oracleBuild(fuzzSchema, rows)
	if got.RowCount != want.RowCount || len(got.Cols) != len(want.Cols) {
		t.Fatalf("RowCount %d with %d columns, oracle %d with %d", got.RowCount, len(got.Cols), want.RowCount, len(want.Cols))
	}
	for i := 0; i < fuzzSchema.Len(); i++ {
		col := fuzzSchema.Col(i)
		g, w := *got.Cols[col.Name], *want.Cols[col.Name]
		if col.Kind == value.KindFloat && len(g.Hist) == len(w.Hist) {
			g.Hist = append([]Bucket(nil), g.Hist...)
			for j := range g.Hist {
				gb, wb := &g.Hist[j], w.Hist[j]
				if !value.Equal(gb.Lo, wb.Lo) || !value.Equal(gb.Hi, wb.Hi) {
					t.Fatalf("%s: bucket %d spans [%v, %v], oracle [%v, %v]", col.Name, j, gb.Lo, gb.Hi, wb.Lo, wb.Hi)
				}
				gb.Lo, gb.Hi = wb.Lo, wb.Hi
			}
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: statistics differ from the oracle's:\n got %+v\nwant %+v", col.Name, g, w)
		}
	}
	return got
}

// FuzzBuildMatchesOracle: statistics built from typed spill slices are
// the statistics the Value-sorting builder gives, over NULLs, NaNs, ±0,
// infinities, the integer extremes, the empty string and BOOL, on
// either side of the exact-count bound.
func FuzzBuildMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1), uint8(0), false)                     // an empty table
	f.Add(int64(2), uint16(600), uint16(40), uint8(100), false)                // every column all NULL
	f.Add(int64(3), uint16(1024), uint16(MaxExactDistinct), uint8(0), false)   // exactly 512 distinct: exact
	f.Add(int64(4), uint16(1024), uint16(MaxExactDistinct+1), uint8(0), false) // 513: spills
	f.Add(int64(5), uint16(513), uint16(513), uint8(0), false)                 // the 513th arrives last or anywhere
	f.Add(int64(6), uint16(3000), uint16(900), uint8(10), true)                // specials among NULLs, spilled
	f.Add(int64(7), uint16(700), uint16(30), uint8(5), true)                   // specials, exact
	f.Add(int64(8), uint16(2000), uint16(2000), uint8(0), true)                // all distinct with specials
	f.Add(int64(325213), uint16(3000), uint16(900), uint8(0), false)           // 900 INTs one apart: spilled and counted
	f.Add(int64(390781), uint16(3000), uint16(1400), uint8(3), false)          // 1,400 INTs two apart among NULLs: counted
	f.Add(int64(325213), uint16(3000), uint16(900), uint8(2), true)            // the same with NaN payloads, ±0 and the INT extremes
	f.Add(int64(9), uint16(1500), uint16(40), uint8(0), true)                  // NaN payloads and ±0 among few values: exact
	f.Fuzz(func(t *testing.T, seed int64, rows, distinct uint16, nullPct uint8, mix bool) {
		n := int(rows) % 4000
		d := max(1, int(distinct)%2001)
		checkMatchesOracle(t, fuzzRows(seed, n, d, int(nullPct)%101, mix))
	})
}

// TestBuildSpillBoundary: the fuzz seeds at the exact-count bound land on
// either side of it — 512 distinct values stay exact, 513 spill into the
// typed slice — and match the oracle there.
func TestBuildSpillBoundary(t *testing.T) {
	for _, d := range []int{MaxExactDistinct, MaxExactDistinct + 1} {
		ts := checkMatchesOracle(t, fuzzRows(int64(d), 2*d, d, 0, false))
		for _, name := range []string{"i", "f", "s"} {
			cs := ts.Col(name)
			if spilled := cs.Exact == nil; spilled != (d > MaxExactDistinct) || cs.Distinct != int64(d) {
				t.Errorf("%d distinct: %s spilled=%v with %d distinct", d, name, spilled, cs.Distinct)
			}
		}
	}
}

// TestBuildCountingHistogramMatchesSort: a spilled INT column whose values
// span fewer than twice its length integers is sorted by counting, any
// other by comparison, and either way the statistics are the oracle's —
// on a dense column, a sparse one, one spanning MinInt64..MaxInt64 (whose
// width overflows int64), a dense one at the top of the range, and a
// BOOL column beside them.
func TestBuildCountingHistogramMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	const n = 3000
	dealt := func(at func(k int) int64) []int64 {
		vals := make([]int64, n)
		for k := range vals {
			vals[k] = at(k)
		}
		r.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return vals
	}
	cases := []struct {
		what    string
		vals    []int64
		counted bool
	}{
		{"dense", dealt(func(k int) int64 { return int64(k%1500) - 700 }), true},
		{"dense, spanning just under twice its length", dealt(func(k int) int64 { return int64(k%1000) * (2*n - 1) / 999 }), true},
		{"spanning twice its length", dealt(func(k int) int64 { return int64(k%1000) * 2 * n / 999 }), false},
		{"sparse", dealt(func(k int) int64 { return int64(k%1500) * 1000003 }), false},
		{"MinInt64..MaxInt64", dealt(func(k int) int64 {
			switch k {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(k % 1000)
		}), false},
		{"top of the range", dealt(func(k int) int64 { return math.MaxInt64 - int64(k%1000) }), true},
		{"bottom of the range", dealt(func(k int) int64 { return math.MinInt64 + int64(k%1000) }), true},
	}
	for _, c := range cases {
		sorted, vals := slices.Clone(c.vals), slices.Clone(c.vals)
		slices.Sort(sorted)
		if counted := sortInts(vals); counted != c.counted || !slices.Equal(vals, sorted) {
			t.Fatalf("%s: counted=%v (want %v), sorted as the comparison sort: %v", c.what, counted, c.counted, slices.Equal(vals, sorted))
		}
		rows := make([]value.Tuple, n)
		for k, x := range c.vals {
			rows[k] = value.Tuple{value.Int(x), value.Float(float64(k % 7)), value.Str("v" + strconv.Itoa(k%5)), value.Bool(r.Intn(2) == 0)}
			if r.Intn(10) == 0 {
				rows[k][3] = value.Null()
			}
		}
		ts := checkMatchesOracle(t, rows)
		if ts.Col("i").Exact != nil || ts.Col("b").Exact == nil {
			t.Fatalf("%s: the INT column stayed exact or the BOOL column spilled", c.what)
		}
	}
}

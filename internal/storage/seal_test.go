package storage

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"minequery/internal/value"
)

// intGroup is one INT or BOOL column of a group: its row count and its
// non-NULL values with their rows (the rows left out are NULL).
type intGroup struct {
	what string
	n    int
	vals []rowValue[int64]
}

// randomGroup deals n rows of values lo + [0, span], about one in nullOdds
// of them NULL (none when nullOdds is 0), and makes sure lo and lo+span
// themselves are present, so the group spans exactly span.
func randomGroup(r *rand.Rand, what string, n int, lo int64, span uint64, nullOdds int) intGroup {
	g := intGroup{what: what, n: n}
	for i := 0; i < n; i++ {
		if nullOdds > 0 && i > 1 && r.Intn(nullOdds) == 0 {
			continue
		}
		var off uint64
		switch {
		case i == 0:
		case i == 1:
			off = span
		case span == math.MaxUint64:
			off = r.Uint64()
		default:
			off = r.Uint64() % (span + 1)
		}
		g.vals = append(g.vals, rowValue[int64]{int64(uint64(lo) + off), int32(i)})
	}
	r.Shuffle(len(g.vals), func(i, j int) { g.vals[i], g.vals[j] = g.vals[j], g.vals[i] })
	return g
}

// sealBy seals g's values with seal into a fresh INT ColVec and returns
// it with the dictionary in its ints.
func sealBy(g intGroup, seal func(v *ColVec, vals []rowValue[int64], codes []uint16) []int64) ColVec {
	v := ColVec{Kind: value.KindInt}
	vals := append([]rowValue[int64](nil), g.vals...)
	codes := make([]uint16, g.n)
	for i := range codes {
		codes[i] = 0xdead // working space holds anything on entry
	}
	v.ints = seal(&v, vals, codes)
	return v
}

// TestSealCountingMatchesSort: an INT or BOOL column coded by counting is
// the column sealDict's sort codes — the same dictionary, in the same
// order, the same codes in the same width, exactly sized — on dense
// groups, groups right at and past the range bound, ranges whose width
// overflows int64, a single value, BOOL and NULLs. sealInts takes the
// counting path exactly when the range is below countingSpan times the
// row count.
func TestSealCountingMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	const n = ColGroupRows
	groups := []intGroup{
		randomGroup(r, "dense", n, -40, 99, 0),
		randomGroup(r, "dense with NULLs", n, 1000, 600, 3),
		randomGroup(r, "more than 256 values", n, 7, 3000, 0),
		randomGroup(r, "range just below the bound", n, -5, countingSpan*n-1, 5),
		randomGroup(r, "range at the bound", n, -5, countingSpan*n, 5),
		randomGroup(r, "range just past the bound", n, -5, countingSpan*n+1, 5),
		randomGroup(r, "sparse", n, 0, 1<<40, 0),
		randomGroup(r, "MinInt64..MaxInt64", n, math.MinInt64, math.MaxUint64, 4),
		randomGroup(r, "wider than MaxInt64", n, math.MinInt64+5, math.MaxUint64-10, 0),
		randomGroup(r, "top of the range", n, math.MaxInt64-50, 50, 2),
		randomGroup(r, "bottom of the range", n, math.MinInt64, 50, 2),
		randomGroup(r, "one value", n, 42, 0, 0),
		randomGroup(r, "one row", 1, -9, 0, 0),
		randomGroup(r, "a short group", 37, 100, 20, 4),
		{what: "all NULL", n: n},
	}
	byValue := func(a, b rowValue[int64]) int { return cmp.Compare(a.v, b.v) }
	sortSeal := func(v *ColVec, vals []rowValue[int64], codes []uint16) []int64 {
		return sealDict(v, vals, codes, byValue)
	}
	for _, g := range groups {
		want := sealBy(g, sortSeal)
		b := &groupBuilder{n: g.n}
		got := sealBy(g, b.sealInts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sealInts\n got %+v\nwant %+v", g.what, got, want)
		}
		if len(got.codes8) != cap(got.codes8) || len(got.codes16) != cap(got.codes16) || len(got.ints) != cap(got.ints) {
			t.Errorf("%s: not exactly sized", g.what)
		}
		if len(g.vals) == 0 {
			continue
		}
		lo, hi := g.vals[0].v, g.vals[0].v
		for _, e := range g.vals {
			lo, hi = min(lo, e.v), max(hi, e.v)
		}
		span := uint64(hi) - uint64(lo)
		if counted := cap(b.slots) > 0; counted != (span < countingSpan*uint64(g.n)) {
			t.Errorf("%s: a range of %d over %d rows counted=%v", g.what, span, g.n, counted)
		}
		if span >= countingSpan*uint64(g.n) {
			continue
		}
		slots := make([]uint16, span+1)
		direct := sealBy(g, func(v *ColVec, vals []rowValue[int64], codes []uint16) []int64 {
			return sealCounting(v, vals, lo, slots, codes)
		})
		if !reflect.DeepEqual(direct, want) {
			t.Fatalf("%s: sealCounting\n got %+v\nwant %+v", g.what, direct, want)
		}
		for i, s := range slots {
			if s != 0 {
				t.Fatalf("%s: slot %d left at %d", g.what, i, s)
			}
		}
	}

	// BOOL, through a whole build: 0/1 in ints, NULLs among them.
	h := NewHeap()
	var rec []byte
	for i := 0; i < 3*n+5; i++ {
		v := value.Bool(r.Intn(2) == 0)
		if r.Intn(4) == 0 {
			v = value.Null()
		}
		rec = value.EncodeTuple(rec[:0], value.Tuple{v})
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := BuildColumnStore(h, []value.Kind{value.KindBool}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := heapRows(t, h)
	for gi, grp := range cs.Groups {
		want := make([]value.Value, grp.N)
		for i := range want {
			want[i] = rows[gi*n+i][0]
		}
		checkSealed(t, "BOOL", &grp.Cols[0], want)
	}
}

// BenchmarkBuildColumnStore builds the sidecar of a 160k-row table shaped
// like the benchmark's wide table: a unique id, INT columns of 10,000,
// 1,000, 50, 20 and 5 values and a 3-valued TEXT. Every group codes id,
// num, c, visits and tier by counting and a by sorting.
func BenchmarkBuildColumnStore(b *testing.B) {
	const n = 160000
	r := rand.New(rand.NewSource(7))
	cols := [][]int64{dealt(r, n, 10000), dealt(r, n, 1000), dealt(r, n, 50), dealt(r, n, 20), dealt(r, n, 5)}
	seg := dealt(r, n, 3)
	h := NewHeap()
	var rec []byte
	for i := 0; i < n; i++ {
		tup := value.Tuple{value.Int(int64(i))}
		for _, c := range cols {
			tup = append(tup, value.Int(c[i]))
		}
		tup = append(tup, value.Str([]string{"regular", "vip", "budget"}[seg[i]]))
		rec = value.EncodeTuple(rec[:0], tup)
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	kinds := []value.Kind{value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindString}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildColumnStore(h, kinds, 0); err != nil {
			b.Fatal(err)
		}
	}
}

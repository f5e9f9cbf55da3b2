package storage

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"minequery/internal/value"
)

// The column store is held to the heap it was built from: every
// expectation below is decoded from the heap's own records, never read
// back from a sealed group.

// identical reports whether a and b are the same value, bit for bit: the
// same kind, and for floats the same sign of zero and the same NaN
// payload, which value.Compare cannot tell apart.
func identical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a == b
}

// dictValue is entry c of v's dictionary.
func dictValue(v *ColVec, c int) value.Value {
	switch v.Kind {
	case value.KindInt:
		return value.Int(v.ints[c])
	case value.KindFloat:
		return value.Float(v.floats[c])
	case value.KindString:
		return value.Str(v.strs[c])
	case value.KindBool:
		return value.Bool(v.ints[c] != 0)
	}
	panic("no dictionary for " + v.Kind.String())
}

// Columns of the round-trip fixture.
const (
	cID    = iota // INT, distinct in every row: more than 256 values per group
	cSmall        // INT, 9 values and NULLs
	cFloat        // FLOAT with NaNs of three payloads, both zeros, infinities, NULLs
	cText         // TEXT with the empty string and NULLs
	cBool         // BOOL and NULLs
	cNull         // a column of kind NULL
	cConst        // INT, one value throughout
	cHole         // INT, NULL in every row of the second group
	cBig          // INT around 2^53, where widening to float64 ties neighbours
	numCols
)

var fixtureKinds = []value.Kind{
	value.KindInt, value.KindInt, value.KindFloat, value.KindString, value.KindBool,
	value.KindNull, value.KindInt, value.KindInt, value.KindInt,
}

var floatPool = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000bad), math.Float64frombits(0xfff8000000000001),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -1.5, 2, 1e300, -1e-300,
}

func fixtureRow(r *rand.Rand, i, groupRows int) value.Tuple {
	maybeNull := func(v value.Value) value.Value {
		if r.Intn(7) == 0 {
			return value.Null()
		}
		return v
	}
	f := floatPool[r.Intn(len(floatPool))]
	if r.Intn(3) == 0 {
		f = float64(r.Intn(40)) / 4
	}
	hole := value.Int(int64(r.Intn(300)))
	if i/groupRows == 1 {
		hole = value.Null()
	}
	return value.Tuple{
		cID:    value.Int(int64(i)*3 - 1000),
		cSmall: maybeNull(value.Int(int64(r.Intn(9) - 4))),
		cFloat: maybeNull(value.Float(f)),
		cText:  maybeNull(value.Str([]string{"", "a", "ab", "b", "\x00", "zz"}[r.Intn(6)])),
		cBool:  maybeNull(value.Bool(r.Intn(2) == 0)),
		cNull:  value.Null(),
		cConst: value.Int(7),
		cHole:  hole,
		cBig:   value.Int(1<<53 + int64(r.Intn(6)) - 2),
	}
}

// heapRows decodes every record of s, in scan order.
func heapRows(t *testing.T, s Store) []value.Tuple {
	t.Helper()
	var rows []value.Tuple
	err := s.Scan(func(_ RID, rec []byte) bool {
		tup, err := value.DecodeTuple(rec)
		if err != nil {
			t.Fatalf("heap record does not decode: %v", err)
		}
		rows = append(rows, tup)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// checkSealed holds one sealed column to the rows it was built from: the
// layout ColVec documents, and every row's value bit for bit.
func checkSealed(t *testing.T, where string, v *ColVec, want []value.Value) {
	t.Helper()
	nulls, distinct := 0, map[string]bool{}
	for i, w := range want {
		if got := v.Value(i); !identical(got, w) {
			t.Fatalf("%s row %d: reconstructed %v, heap holds %v", where, i, got, w)
		}
		if w.IsNull() != v.IsNull(i) {
			t.Fatalf("%s row %d: IsNull %v for %v", where, i, v.IsNull(i), w)
		}
		if w.IsNull() {
			nulls++
			continue
		}
		switch w.Kind() {
		case value.KindFloat:
			distinct[fmt.Sprintf("%x", math.Float64bits(w.AsFloat()))] = true
		case value.KindString:
			distinct["s"+w.AsString()] = true
		default:
			distinct[w.String()] = true
		}
	}
	if (v.Nulls != nil) != (nulls > 0) {
		t.Errorf("%s: Nulls present %v for %d NULL rows", where, v.Nulls != nil, nulls)
	}
	if v.DictLen() != len(distinct) {
		t.Errorf("%s: dictionary has %d entries for %d distinct values", where, v.DictLen(), len(distinct))
	}
	c8, c16 := v.Codes()
	switch d := v.DictLen(); {
	case d == 0 && (c8 != nil || c16 != nil):
		t.Errorf("%s: codes for an empty dictionary", where)
	case d > 0 && d <= 256 && (len(c8) != len(want) || c16 != nil):
		t.Errorf("%s: %d entries want 8-bit codes, got %d 8-bit and %d 16-bit", where, d, len(c8), len(c16))
	case d > 256 && (len(c16) != len(want) || c8 != nil):
		t.Errorf("%s: %d entries want 16-bit codes, got %d 8-bit and %d 16-bit", where, d, len(c8), len(c16))
	}
	for name, lenCap := range map[string][2]int{
		"Nulls": {len(v.Nulls), cap(v.Nulls)}, "ints": {len(v.ints), cap(v.ints)},
		"floats": {len(v.floats), cap(v.floats)}, "strs": {len(v.strs), cap(v.strs)},
		"codes8": {len(c8), cap(c8)}, "codes16": {len(c16), cap(c16)},
	} {
		if lenCap[0] != lenCap[1] {
			t.Errorf("%s: %s has len %d, cap %d", where, name, lenCap[0], lenCap[1])
		}
	}
	// Sorted: ascending under Compare, NaNs first.
	for c := 1; c < v.DictLen(); c++ {
		if value.Compare(dictValue(v, c-1), dictValue(v, c)) > 0 {
			t.Fatalf("%s: entries %d, %d out of order: %v, %v", where, c-1, c, dictValue(v, c-1), dictValue(v, c))
		}
	}
}

// checkRank holds Rank to value.Compare over every entry.
func checkRank(t *testing.T, where string, v *ColVec, lit value.Value) {
	t.Helper()
	lt, le := v.Rank(lit)
	if lt < 0 || lt > le || le > v.DictLen() {
		t.Fatalf("%s: Rank(%v) = %d, %d with %d entries", where, lit, lt, le, v.DictLen())
	}
	for c := 0; c < v.DictLen(); c++ {
		want := 0
		switch {
		case c < lt:
			want = -1
		case c >= le:
			want = 1
		}
		if got := value.Compare(dictValue(v, c), lit); got != want {
			t.Fatalf("%s: Rank(%v) = %d, %d but entry %d (%v) compares %d", where, lit, lt, le, c, dictValue(v, c), got)
		}
	}
}

// probes are literals to rank against a column: every value it holds in
// this group, their neighbours, and the other numeric kind.
func probes(v *ColVec) []value.Value {
	var out []value.Value
	for c := 0; c < v.DictLen(); c++ {
		e := dictValue(v, c)
		out = append(out, e)
		switch e.Kind() {
		case value.KindInt:
			out = append(out, value.Int(e.AsInt()-1), value.Int(e.AsInt()+1),
				value.Float(float64(e.AsInt())), value.Float(float64(e.AsInt())+0.5))
		case value.KindFloat:
			f := e.AsFloat()
			out = append(out, value.Float(math.Nextafter(f, math.Inf(1))), value.Float(math.Nextafter(f, math.Inf(-1))), value.Float(-f))
			if f == math.Trunc(f) && math.Abs(f) < 1e15 {
				out = append(out, value.Int(int64(f)), value.Int(int64(f)+1))
			}
		case value.KindString:
			out = append(out, value.Str(e.AsString()+"\x00"), value.Str(strings.TrimSuffix(e.AsString(), "b")))
		case value.KindBool:
			out = append(out, value.Bool(!e.AsBool()))
		}
	}
	switch v.Kind {
	case value.KindInt, value.KindFloat:
		out = append(out, value.Int(math.MinInt64), value.Int(math.MaxInt64), value.Float(math.Inf(-1)),
			value.Float(math.Inf(1)), value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1<<53))
	case value.KindString:
		out = append(out, value.Str(""), value.Str("\xff"))
	case value.KindBool:
		out = append(out, value.Bool(false), value.Bool(true))
	}
	return out
}

func TestColumnStoreRoundTrip(t *testing.T) {
	const groupRows = 512
	const n = 3*groupRows + 77
	r := rand.New(rand.NewSource(20251003))
	h := NewHeap()
	for i := 0; i < n; i++ {
		if _, err := h.Insert(value.EncodeTuple(nil, fixtureRow(r, i, groupRows))); err != nil {
			t.Fatal(err)
		}
	}
	rows := heapRows(t, h)
	cs, err := BuildColumnStore(h, fixtureKinds, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumRows != n || len(cs.Groups) != 4 {
		t.Fatalf("%d rows in %d groups, want %d in 4", cs.NumRows, len(cs.Groups), n)
	}
	base := 0
	for gi, g := range cs.Groups {
		if want := min(groupRows, n-base); g.N != want || g.Part != 0 || len(g.Cols) != numCols {
			t.Fatalf("group %d: N=%d Part=%d cols=%d, want N=%d", gi, g.N, g.Part, len(g.Cols), want)
		}
		for c := range g.Cols {
			want := make([]value.Value, g.N)
			for i := range want {
				want[i] = rows[base+i][c]
			}
			where := fmt.Sprintf("group %d column %d", gi, c)
			checkSealed(t, where, &g.Cols[c], want)
			if fixtureKinds[c] != value.KindNull {
				for _, lit := range probes(&g.Cols[c]) {
					checkRank(t, where, &g.Cols[c], lit)
				}
			}
		}
		base += g.N
	}

	// The shapes the fixture was built to hold.
	g0, g1 := cs.Groups[0], cs.Groups[1]
	if _, c16 := g0.Cols[cID].Codes(); c16 == nil {
		t.Error("a group of distinct ids was not sealed with 16-bit codes")
	}
	if v := &g0.Cols[cConst]; v.DictLen() != 1 || v.Nulls != nil {
		t.Errorf("constant column: %d entries, Nulls %v", v.DictLen(), v.Nulls != nil)
	}
	if v := &g1.Cols[cHole]; v.DictLen() != 0 || len(v.Nulls) != g1.N {
		t.Errorf("all-NULL group: %d entries, %d Nulls", v.DictLen(), len(v.Nulls))
	}
	if v := &g0.Cols[cNull]; v.DictLen() != 0 || len(v.Nulls) != g0.N {
		t.Errorf("NULL-kind column: %d entries, %d Nulls", v.DictLen(), len(v.Nulls))
	}
	f := &g0.Cols[cFloat]
	if lt, le := f.Rank(value.Float(math.NaN())); lt != 0 || le != 3 {
		t.Errorf("NaN ranks equal to entries [%d, %d), want the 3 payloads the fixture deals, first", lt, le)
	}
	if lt, le := f.Rank(value.Float(0)); le-lt != 2 {
		t.Errorf("0.0 ranks equal to %d entries, want both zeros", le-lt)
	}
	// 2^53-1 and 2^53+1 are different INTs; as float64 the second rounds
	// onto 2^53, and value.Compare against a FLOAT literal sees it there.
	if lt, le := g0.Cols[cBig].Rank(value.Float(1 << 53)); le-lt != 2 {
		t.Errorf("FLOAT 2^53 ranks equal to %d INT entries, want 2^53 and 2^53+1", le-lt)
	}
}

func TestColumnStorePartitionTails(t *testing.T) {
	const groupRows = 512
	ph, err := NewPartitionedHeap(3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	i := 0
	for part, n := range []int{groupRows + 188, 0, 2*groupRows + 18} {
		for k := 0; k < n; k++ {
			if _, err := ph.InsertPart(part, value.EncodeTuple(nil, fixtureRow(r, i, groupRows))); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	rows := heapRows(t, ph)
	cs, err := BuildColumnStore(ph, fixtureKinds, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	type shape struct{ part, n int }
	var got []shape
	base := 0
	for _, g := range cs.Groups {
		got = append(got, shape{g.Part, g.N})
		for c := range g.Cols {
			for k := 0; k < g.N; k++ {
				if v := g.Cols[c].Value(k); !identical(v, rows[base+k][c]) {
					t.Fatalf("partition %d row %d column %d: %v, heap holds %v", g.Part, base+k, c, v, rows[base+k][c])
				}
			}
		}
		base += g.N
	}
	want := []shape{{0, groupRows}, {0, 188}, {2, groupRows}, {2, groupRows}, {2, 18}}
	if fmt.Sprint(got) != fmt.Sprint(want) || cs.NumRows != int64(len(rows)) {
		t.Fatalf("groups %v over %d rows, want %v over %d", got, cs.NumRows, want, len(rows))
	}
}

func TestBuildColumnStoreRefuses(t *testing.T) {
	kinds := []value.Kind{value.KindInt, value.KindString}
	rec := func(vals ...value.Value) []byte { return value.EncodeTuple(nil, value.Tuple(vals)) }
	good := rec(value.Int(1), value.Str("x"))
	for name, bad := range map[string][]byte{
		"wrong kind":      rec(value.Str("1"), value.Str("x")),
		"wrong arity":     rec(value.Int(1)),
		"truncated":       good[:len(good)-1],
		"FLOAT into INT":  rec(value.Float(1), value.Str("x")),
		"bad kind tag":    append(append([]byte{}, good[:1]...), 0x7f),
		"INT into STRING": rec(value.Int(1), value.Int(2)),
	} {
		h := NewHeap()
		for _, b := range [][]byte{good, bad, good} {
			if _, err := h.Insert(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := BuildColumnStore(h, kinds, 0); err == nil {
			t.Errorf("%s: build accepted the record", name)
		}
	}
	if _, err := BuildColumnStore(NewHeap(), kinds, maxGroupRows+1); err == nil {
		t.Error("build accepted groups wider than a 16-bit code")
	}
	// INT widens into a FLOAT column, as the catalog's insert path does.
	h := NewHeap()
	if _, err := h.Insert(rec(value.Int(3))); err != nil {
		t.Fatal(err)
	}
	cs, err := BuildColumnStore(h, []value.Kind{value.KindFloat}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Groups[0].Cols[0].Value(0); !identical(got, value.Float(3)) {
		t.Errorf("INT 3 in a FLOAT column reads back %v", got)
	}
}

// dealt returns n values of [0, domain) in equal shares, shuffled: every
// group then sees nearly the whole domain, as on a heap nobody sorted.
func dealt(r *rand.Rand, n, domain int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % domain)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestFootprintColumnStore pins what a sealed store keeps per row on a
// table shaped like the benchmark's: a unique id, five INT columns from
// sparse to nearly constant and a 3-valued TEXT. Plain typed vectors took
// 8 bytes per INT, a string header per TEXT and append's headroom, about
// 110 bytes a row.
func TestFootprintColumnStore(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 40 * ColGroupRows
	r := rand.New(rand.NewSource(7))
	cols := [][]int64{nil, dealt(r, n, 10000), dealt(r, n, 1000), dealt(r, n, 50), dealt(r, n, 20), dealt(r, n, 5)}
	seg := dealt(r, n, 3)
	h := NewHeap()
	var rec []byte
	for i := 0; i < n; i++ {
		tup := value.Tuple{value.Int(int64(i))}
		for _, c := range cols[1:] {
			tup = append(tup, value.Int(c[i]))
		}
		tup = append(tup, value.Str([]string{"regular", "vip", "budget"}[seg[i]]))
		rec = value.EncodeTuple(rec[:0], tup)
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []value.Kind{value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindString}
	heapNow := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heapNow()
	cs, err := BuildColumnStore(h, kinds, 0)
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(int64(heapNow())-int64(before)) / n
	runtime.KeepAlive(cs)
	runtime.KeepAlive(h)
	t.Logf("%d rows in %d groups: %.1f bytes per row", cs.NumRows, len(cs.Groups), perRow)
	if perRow > 40 {
		t.Errorf("the sealed store keeps %.1f bytes per row, want at most 40", perRow)
	}
}

// TestAllocBuildColumnStoreText: a build makes a string once per distinct
// TEXT value it decodes, not once per row: what it allocates besides is
// per group. Four times the rows with the same strings cost a few
// allocations a group more; four times the strings over the same rows
// cost about one more a string.
func TestAllocBuildColumnStoreText(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// heap holds n rows of an INT and a TEXT of d strings.
	heap := func(n, d int) *Heap {
		h := NewHeap()
		var rec []byte
		for i := 0; i < n; i++ {
			rec = value.EncodeTuple(rec[:0], value.Tuple{value.Int(int64(i % 50)), value.Str("segment-" + strconv.Itoa(i%d))})
			if _, err := h.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	kinds := []value.Kind{value.KindInt, value.KindString}
	built := func(h *Heap) uint64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := BuildColumnStore(h, kinds, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 8 * ColGroupRows
	few, manyRows, manyStrings := built(heap(n, 500)), built(heap(4*n, 500)), built(heap(n, 2000))
	t.Logf("a build makes %d allocations over %d rows of 500 strings, %d over %d rows, %d over %d rows of 2,000 strings", few, n, manyRows, 4*n, manyStrings, n)
	if perRow := float64(int64(manyRows)-int64(few)) / (3 * n); perRow > 0.01 {
		t.Errorf("a build allocates %.3f times more per extra row, at most 0.01", perRow)
	}
	if extra := int64(manyStrings) - int64(few); extra < 1500 || extra > 2*1500 {
		t.Errorf("1,500 more strings took %d more allocations, want one or two a string", extra)
	}
}

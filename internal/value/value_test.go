package value

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "TEXT", KindBool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("Int round trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round trip failed")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int widened to float failed")
	}
	if Str("abc").AsString() != "abc" {
		t.Error("Str round trip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round trip failed")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misreports")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { Str("x").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsBool on int", func() { Int(1).AsBool() })
	mustPanic("AsFloat on string", func() { Str("x").AsFloat() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Null(), Int(-100), -1},
		{Int(-100), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossKindTotalOrder(t *testing.T) {
	// Incompatible kinds must still produce an antisymmetric order.
	a, b := Str("zzz"), Bool(true)
	if Compare(a, b) != -Compare(b, a) {
		t.Error("cross-kind compare is not antisymmetric")
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(int64(r.Intn(2000) - 1000))
	case 2:
		return Float(r.Float64()*200 - 100)
	case 3:
		letters := []byte("abcdefgh")
		n := r.Intn(6)
		s := make([]byte, n)
		for i := range s {
			s[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(s))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestHashEqualConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		if Equal(a, b) && !bytes.Equal(a.SortKey(nil), b.SortKey(nil)) {
			t.Fatalf("equal values %v and %v have different sort keys", a, b)
		}
	}
	if !bytes.Equal(Int(2).SortKey(nil), Float(2.0).SortKey(nil)) {
		t.Error("numerically equal INT and FLOAT must share a sort key")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		v := randomValue(r)
		enc := v.Encode(nil)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %v consumed %d of %d bytes", v, n, len(enc))
		}
		if !Equal(got, v) || got.Kind() != v.Kind() {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("decode of empty buffer should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("short INT should fail")
	}
	if _, _, err := DecodeValue([]byte{255}); err == nil {
		t.Error("bad kind tag should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 10, 'a'}); err == nil {
		t.Error("short TEXT should fail")
	}
	if _, _, err := DecodeValue([]byte{tagIntVarint}); err == nil {
		t.Error("empty compact INT should fail")
	}
	if _, _, err := DecodeValue([]byte{tagIntVarint, 0x80}); err == nil {
		t.Error("short compact INT should fail")
	}
	overlong := append([]byte{tagIntVarint}, bytes.Repeat([]byte{0xff}, 10)...)
	if _, _, err := DecodeValue(append(overlong, 0x01)); err == nil {
		t.Error("overlong compact INT should fail")
	}
	if _, _, err := DecodeValue([]byte{tagIntVarint, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}); err == nil {
		t.Error("compact INT past 64 bits should fail")
	}
	if _, err := DecodeTuple(nil); err == nil {
		t.Error("decode tuple of empty buffer should fail")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tup := make(Tuple, r.Intn(6))
		for j := range tup {
			tup[j] = randomValue(r)
		}
		enc := EncodeTuple(nil, tup)
		got, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode tuple %v: %v", tup, err)
		}
		if !got.Equal(tup) {
			t.Fatalf("tuple round trip %v -> %v", tup, got)
		}
	}
}

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

// TestDecodeTupleInto pins the caller-owned decode: same values as
// DecodeTuple, into dst's own storage whenever it is large enough; a
// masked-out field is left out of the tuple, and validated all the same.
func TestDecodeTupleInto(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dst := make(Tuple, 0, 8)
	for i := 0; i < 500; i++ {
		tup := make(Tuple, r.Intn(12))
		need := make([]bool, r.Intn(14)) // shorter than the tuple, or longer
		for j := range tup {
			tup[j] = randomValue(r)
		}
		for j := range need {
			need[j] = r.Intn(2) == 0
		}
		enc := EncodeTuple(nil, tup)
		got, err := DecodeTupleInto(dst, enc, nil)
		if err != nil || !got.Equal(tup) {
			t.Fatalf("decode %v into dst = %v, %v", tup, got, err)
		}
		if inPlace := len(got) == 0 || &got[0] == &dst[:1][0]; inPlace != (len(tup) <= cap(dst)) {
			t.Fatalf("arity %d, cap(dst) %d: decoded in place = %v", len(tup), cap(dst), inPlace)
		}
		var want Tuple
		for j, v := range tup {
			if j < len(need) && need[j] {
				want = append(want, v)
			}
		}
		if got, err = DecodeTupleInto(dst, enc, need); err != nil || len(got) != len(want) {
			t.Fatalf("masked decode of %v under %v = %v, %v; want %v", tup, need, got, err, want)
		}
		for j, v := range got {
			// Equal, not ==: NaN round-trips.
			if !Equal(v, want[j]) || v.Kind() != want[j].Kind() {
				t.Fatalf("masked decode of %v under %v: field %d = %v, want %v", tup, need, j, v, want[j])
			}
		}
	}

	// Damage in a field the mask skips is still damage.
	good := EncodeTuple(nil, Tuple{Int(1), Str("text"), Int(2)})
	skipText := []bool{true, false, true}
	for name, bad := range map[string][]byte{
		"truncated TEXT":  good[:len(good)-11],
		"bad kind tag":    append(append([]byte{}, good[:10]...), 0xEE),
		"arity past data": {200, byte(KindNull)},
		"no arity":        nil,
	} {
		if _, err := DecodeTupleInto(dst, bad, skipText); err == nil {
			t.Errorf("%s: masked decode should fail", name)
		}
		if _, err := DecodeTuple(bad); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// TestDecodeTupleIntoAllocs: decoding into a reused tuple allocates the
// strings it keeps and nothing else — nothing at all once they are
// masked out.
func TestDecodeTupleIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	enc := EncodeTuple(nil, Tuple{Int(1), Str("a string long enough to need its own allocation"), Float(2), Bool(true), Null()})
	dst := make(Tuple, 0, 5)
	for _, tc := range []struct {
		name string
		need []bool
		want float64
	}{
		{"every column", nil, 1},
		{"TEXT masked out", []bool{true, false, true, true, true}, 0},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := DecodeTupleInto(dst, enc, tc.need); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: %v allocations per decode, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSortKeyOrderPreserving(t *testing.T) {
	// Property: for same-comparable-kind values, byte order of SortKey
	// equals Compare order.
	r := rand.New(rand.NewSource(4))
	gens := []func() Value{
		func() Value { return Int(int64(r.Intn(2000) - 1000)) },
		func() Value { return Float(r.Float64()*2e6 - 1e6) },
		func() Value { return Str(string(rune('a' + r.Intn(26)))) },
	}
	for gi, gen := range gens {
		for i := 0; i < 3000; i++ {
			a, b := gen(), gen()
			ka, kb := a.SortKey(nil), b.SortKey(nil)
			bc := bytes.Compare(ka, kb)
			vc := Compare(a, b)
			if sign(bc) != sign(vc) {
				t.Fatalf("gen %d: SortKey order mismatch %v vs %v: bytes %d, compare %d", gi, a, b, bc, vc)
			}
		}
	}
	// Mixed int/float and null ordering.
	vals := []Value{Null(), Float(-5.5), Int(-5), Int(0), Float(0.25), Int(3), Float(3.5), Str("")}
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = v.SortKey(nil)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Error("SortKey does not preserve mixed ordering")
	}
}

// TestSortKeyKeepsCompareOrder pins the one rule an index lives by, over
// the numbers where it is easy to break: SortKey may merge values
// Compare tells apart (INTs past 2^53 share a float key; the filter above
// a seek re-checks), but must never split values Compare ties — −0.0 and
// 0.0, NaN payloads — nor invert two it orders; and values Compare ties
// hash alike.
func TestSortKeyKeepsCompareOrder(t *testing.T) {
	vals := []Value{
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000bad)), Float(math.Float64frombits(0xfff8000000000001)),
		Float(math.Inf(-1)), Float(-1e308), Int(-3), Float(-2.5), Float(-math.SmallestNonzeroFloat64),
		Float(math.Copysign(0, -1)), Float(0), Int(0), Float(math.SmallestNonzeroFloat64), Float(5), Int(5),
		Int(1 << 53), Int(1<<53 + 1), Float(1 << 53), Float(1e308), Float(math.Inf(1)),
	}
	for _, a := range vals {
		for _, b := range vals {
			c := Compare(a, b)
			k := bytes.Compare(a.SortKey(nil), b.SortKey(nil))
			if (c == 0 && k != 0) || c*k < 0 {
				t.Errorf("Compare(%v, %v) = %d but their sort keys compare %d", a, b, c, k)
			}
		}
	}
	if nan, inf := Float(math.NaN()), Float(math.Inf(-1)); Compare(nan, inf) >= 0 {
		t.Errorf("NaN must sort below -Inf, Compare = %d", Compare(nan, inf))
	}
}

func TestSortKeyStringPrefixAndNulByte(t *testing.T) {
	pairs := [][2]string{{"ab", "abc"}, {"a\x00b", "a\x00c"}, {"a", "a\x00"}, {"", "a"}}
	for _, p := range pairs {
		ka, kb := Str(p[0]).SortKey(nil), Str(p[1]).SortKey(nil)
		if bytes.Compare(ka, kb) >= 0 {
			t.Errorf("SortKey(%q) should sort before SortKey(%q)", p[0], p[1])
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestSchema(t *testing.T) {
	s := MustSchema(Column{"id", KindInt}, Column{"Name", KindString})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Ordinal("name") != 1 || s.Ordinal("ID") != 0 {
		t.Error("Ordinal should be case-insensitive")
	}
	if s.Ordinal("missing") != -1 {
		t.Error("Ordinal of missing column should be -1")
	}
	if s.Col(1).Name != "Name" {
		t.Error("Col returned wrong column")
	}
	if got := s.String(); got != "(id INT, Name TEXT)" {
		t.Errorf("String = %q", got)
	}
	if _, err := NewSchema(Column{"a", KindInt}, Column{"A", KindFloat}); err == nil {
		t.Error("duplicate column names should error")
	}
}

func TestTupleHelpers(t *testing.T) {
	tup := Tuple{Int(1), Str("x")}
	cl := tup.Clone()
	cl[0] = Int(9)
	if tup[0].AsInt() != 1 {
		t.Error("Clone must be independent")
	}
	if !tup.Equal(Tuple{Int(1), Str("x")}) {
		t.Error("Equal tuples misreported")
	}
	if tup.Equal(Tuple{Int(1)}) {
		t.Error("different arity tuples reported equal")
	}
	if tup.Equal(Tuple{Int(1), Str("y")}) {
		t.Error("different tuples reported equal")
	}
	if !tup.Equal(Tuple{Float(1), Str("x")}) {
		t.Error("numerically equal tuples must be Equal")
	}
	if got := tup.String(); got != `(1, "x")` {
		t.Errorf("Tuple.String = %q", got)
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Float(fl), Str(s), Bool(b), Null()} {
			enc := v.Encode(nil)
			got, _, err := DecodeValue(enc)
			if err != nil || !Equal(got, v) || got.Kind() != v.Kind() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringSortKey(t *testing.T) {
	f := func(a, b string) bool {
		bc := bytes.Compare(Str(a).SortKey(nil), Str(b).SortKey(nil))
		return sign(bc) == sign(Compare(Str(a), Str(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodedLen: EncodedLen is the length EncodeTuple writes, for
// every kind — NULL, BOOL, INT, FLOAT and TEXT, up to lengths whose
// uvarint takes two and three bytes — and any arity.
func TestQuickEncodedLen(t *testing.T) {
	f := func(i int64, fl float64, b bool, s string, long uint16, picks []uint8) bool {
		pool := []Value{Null(), Bool(b), Int(i), Float(fl), Str(s),
			Str(strings.Repeat("x", 127)), Str(strings.Repeat("y", 128+int(long)%16384)), Str(strings.Repeat("z", 16384))}
		var tup Tuple
		for _, k := range picks {
			tup = append(tup, pool[int(k)%len(pool)])
		}
		return EncodedLen(tup) == len(EncodeTuple(nil, tup))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for n := range 300 { // arities whose uvarint takes one and two bytes
		tup := make(Tuple, n)
		for j := range tup {
			tup[j] = Null()
		}
		if got, want := EncodedLen(tup), len(EncodeTuple(nil, tup)); got != want {
			t.Fatalf("arity %d: EncodedLen %d, encoding %d bytes", n, got, want)
		}
	}
}

// TestAllocEncodeTupleOnce: a buffer presized with EncodedLen takes a
// row's encoding in one allocation; growing from nil takes one per
// doubling (8, 16, 32 and 64 bytes for this 42-byte row).
func TestAllocEncodeTupleOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	row := Tuple{Int(20417), Str("c11"), Int(8630), Int(0), Str("high"), Str("b")}
	var sink []byte
	got := testing.AllocsPerRun(200, func() {
		sink = EncodeTuple(make([]byte, 0, EncodedLen(row)), row)
	})
	if got != 1 {
		t.Errorf("%v allocations to encode a row into a presized buffer, want 1", got)
	}
	if len(sink) != cap(sink) {
		t.Errorf("the encoding fills %d of %d bytes: EncodedLen is not exact", len(sink), cap(sink))
	}
}

// BenchmarkTupleCodec times one seven-field row through EncodeTuple and
// DecodeTupleInto: five INTs (two of them three varint bytes), a FLOAT
// and a TEXT, into caller-owned storage as a scan decodes.
func BenchmarkTupleCodec(b *testing.B) {
	row := Tuple{Int(123456), Int(42), Int(7), Int(35000), Float(2.5), Str("regular"), Int(3)}
	rec := EncodeTuple(nil, row)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(rec))
		for i := 0; i < b.N; i++ {
			buf = EncodeTuple(buf[:0], row)
		}
	})
	b.Run("decode", func(b *testing.B) {
		dst := make(Tuple, 0, len(row))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeTupleInto(dst, rec, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

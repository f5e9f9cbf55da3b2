package value

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"unsafe"
)

// TestValueLayout: a Value is one kind byte, one payload word and a
// string header. Every tuple, arena chunk and batch is sized by it.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestValueFormsUnchanged pins the bytes WAL records, B+-tree keys and
// statistics sketches store, and the rendering the SQL dialect prints.
// Keys and renderings are what the 40-byte layout (a separate
// float64 field) produced: the payload word holding a FLOAT's bits moves
// none of them. Record bytes are too, but for an INT, which is written
// as tag 5 and a zigzag varint; the fixed-width tag-1 form every earlier
// record holds is pinned below as a decode fixture, and decodes to the
// same value.
func TestValueFormsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name            string
		v               Value
		encode, sortKey string
		str             string
	}{
		{"null", Null(), "00", "00", "NULL"},
		{"int", Int(42), "0554", "01c045000000000000", "42"},
		{"int 0", Int(0), "0500", "018000000000000000", "0"},
		{"int -1", Int(-1), "0501", "01400fffffffffffff", "-1"},
		{"int 63", Int(63), "057e", "01c04f800000000000", "63"},
		{"int -64", Int(-64), "057f", "013fafffffffffffff", "-64"},
		{"int 64", Int(64), "058001", "01c050000000000000", "64"},
		{"int min", Int(math.MinInt64), "05ffffffffffffffffff01", "013c1fffffffffffff", "-9223372036854775808"},
		{"int max", Int(math.MaxInt64), "05feffffffffffffffff01", "01c3e0000000000000", "9223372036854775807"},
		{"float", Float(2.5), "020000000000000440", "01c004000000000000", "2.5"},
		{"float 0", Float(0), "020000000000000000", "018000000000000000", "0"},
		{"float -0", Float(math.Copysign(0, -1)), "020000000000000080", "018000000000000000", "-0"},
		{"float NaN payload", Float(math.Float64frombits(0x7ff8000000000bad)), "02ad0b00000000f87f", "010000000000000000", "NaN"},
		{"float negative NaN", Float(math.Float64frombits(0xfff8000000000001)), "02010000000000f8ff", "010000000000000000", "NaN"},
		{"float +Inf", Float(math.Inf(1)), "02000000000000f07f", "01fff0000000000000", "+Inf"},
		{"float -Inf", Float(math.Inf(-1)), "02000000000000f0ff", "01000fffffffffffff", "-Inf"},
		{"float smallest subnormal", Float(math.SmallestNonzeroFloat64), "020100000000000000", "018000000000000001", "5e-324"},
		{"text", Str("abc"), "0303616263", "036162630000", `"abc"`},
		{"text empty", Str(""), "0300", "030000", `""`},
		{"text NUL", Str("a\x00b"), "0303610062", "036100ff620000", `"a\x00b"`},
		{"text multi-byte", Str("日本€"), "0309e697a5e69cace282ac", "03e697a5e69cace282ac0000", `"日本€"`},
		{"bool true", Bool(true), "0401", "0201", "TRUE"},
		{"bool false", Bool(false), "0400", "0200", "FALSE"},
	} {
		if got := hex.EncodeToString(c.v.Encode(nil)); got != c.encode {
			t.Errorf("%s: Encode = %s, want %s", c.name, got, c.encode)
		}
		if got := hex.EncodeToString(c.v.SortKey(nil)); got != c.sortKey {
			t.Errorf("%s: SortKey = %s, want %s", c.name, got, c.sortKey)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%s: String = %s, want %s", c.name, got, c.str)
		}
	}
	for _, c := range []struct {
		legacy string
		v      Value
	}{
		{"012a00000000000000", Int(42)},
		{"010000000000000000", Int(0)},
		{"01ffffffffffffffff", Int(-1)},
		{"010000000000000080", Int(math.MinInt64)},
		{"01ffffffffffffff7f", Int(math.MaxInt64)},
	} {
		b, _ := hex.DecodeString(c.legacy)
		got, n, err := DecodeValue(b)
		if err != nil || n != len(b) || got != c.v {
			t.Errorf("legacy INT %s: DecodeValue = %v (%v), %d, %v; want %v, %d", c.legacy, got, got.Kind(), n, err, c.v, len(b))
		}
	}
}

// fuzzValue builds a Value of any kind from a kind byte, a payload word
// (an INT's value, a FLOAT's bits, a BOOL's low bit) and a string.
func fuzzValue(kind byte, payload uint64, s string) Value {
	switch Kind(kind % 5) {
	case KindInt:
		return Int(int64(payload))
	case KindFloat:
		return Float(math.Float64frombits(payload))
	case KindString:
		return Str(s)
	case KindBool:
		return Bool(payload&1 != 0)
	}
	return Null()
}

// FuzzValueCodec: every value round-trips through Encode and DecodeValue
// bit for bit; and for two values, SortKey never orders them against
// Compare, nor splits, or hashes apart, values Compare ties.
func FuzzValueCodec(f *testing.F) {
	bits := math.Float64bits
	word := func(x int64) uint64 { return uint64(x) }
	for _, seed := range []struct {
		k1 byte
		p1 uint64
		s1 string
		k2 byte
		p2 uint64
		s2 string
	}{
		{0, 0, "", 1, 0, ""},
		{1, 42, "", 2, bits(42), ""},
		{2, 0x7ff8000000000bad, "", 2, 0xfff8000000000001, ""},
		{2, bits(math.Copysign(0, -1)), "", 1, 0, ""},
		{2, bits(math.Inf(-1)), "", 2, 0x7ff8000000000001, ""},
		{2, 1, "", 2, bits(math.Inf(1)), ""},
		{1, 1<<53 + 1, "", 2, bits(1 << 53), ""},
		{1, 1 << 63, "", 1, 1<<63 - 1, ""},
		{1, word(-64), "", 1, 63, ""}, // the widest one-byte varints
		{1, word(-65), "", 1, 64, ""},
		{1, 1 << 31, "", 1, word(-(1 << 31)), ""},
		{1, word(math.MinInt64), "", 1, math.MaxInt64, ""},
		{3, 0, "a\x00b", 3, 0, "a"},
		{3, 0, "", 3, 0, "日本€"},
		{4, 1, "", 4, 0, ""},
	} {
		f.Add(seed.k1, seed.p1, seed.s1, seed.k2, seed.p2, seed.s2)
	}
	f.Fuzz(func(t *testing.T, k1 byte, p1 uint64, s1 string, k2 byte, p2 uint64, s2 string) {
		a, b := fuzzValue(k1, p1, s1), fuzzValue(k2, p2, s2)
		for _, v := range []Value{a, b} {
			enc := v.Encode(nil)
			got, n, err := DecodeValue(enc)
			if err != nil || n != len(enc) {
				t.Fatalf("decode of %v: %v, %d of %d bytes", v, err, n, len(enc))
			}
			if v.encodedLen() != len(enc) {
				t.Fatalf("encodedLen(%v) = %d, encoding is %d bytes", v, v.encodedLen(), len(enc))
			}
			same := got.Kind() == v.Kind()
			switch v.Kind() {
			case KindFloat:
				same = same && bits(got.AsFloat()) == bits(v.AsFloat())
			case KindString:
				same = same && got.AsString() == v.AsString()
			case KindInt:
				same = same && got.AsInt() == v.AsInt()
			case KindBool:
				same = same && got.AsBool() == v.AsBool()
			}
			if !same {
				t.Fatalf("round trip %v (%v) -> %v (%v)", v, v.Kind(), got, got.Kind())
			}
		}
		c := Compare(a, b)
		// SortKey keys one index column, which holds one kind (NULL
		// aside), or numbers of both kinds; across other kinds it orders
		// by its own tags.
		numeric := a.numeric() && b.numeric()
		if !numeric && a.Kind() != b.Kind() && !a.IsNull() && !b.IsNull() {
			return
		}
		k := bytes.Compare(a.SortKey(nil), b.SortKey(nil))
		if (c == 0 && k != 0) || c*k < 0 {
			t.Fatalf("Compare(%v, %v) = %d but their sort keys compare %d", a, b, c, k)
		}
	})
}

// legacyTuple encodes t as records were written before the compact INT:
// every INT as tag 1 and 8 bytes little-endian, every other value as
// Encode writes it.
func legacyTuple(t Tuple) []byte {
	b := binary.AppendUvarint(nil, uint64(len(t)))
	for _, v := range t {
		if v.Kind() == KindInt {
			b = binary.LittleEndian.AppendUint64(append(b, byte(KindInt)), uint64(v.AsInt()))
			continue
		}
		b = v.Encode(b)
	}
	return b
}

// FuzzDecodeTuple: DecodeTuple never panics on arbitrary bytes; a tuple
// it accepts re-encodes, in EncodedLen bytes, to a record that decodes
// to the same tuple bit for bit; and the same tuple with every INT in
// the legacy fixed-width form decodes to it too.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(EncodeTuple(nil, Tuple{Int(7), Str("c3"), Float(2.5), Null(), Bool(true)}))
	f.Add(EncodeTuple(nil, Tuple{Int(math.MinInt64), Int(math.MaxInt64), Int(-64), Int(63), Int(1 << 31)}))
	f.Add(legacyTuple(Tuple{Int(-1), Str(""), Float(0), Int(1 << 40), Bool(false)}))
	f.Add([]byte{1, tagIntVarint, 0x80})
	f.Add(append([]byte{1, tagIntVarint}, bytes.Repeat([]byte{0xff}, 11)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		tup, err := DecodeTuple(b)
		if err != nil {
			return
		}
		enc := EncodeTuple(nil, tup)
		if n := EncodedLen(tup); n != len(enc) {
			t.Fatalf("EncodedLen(%v) = %d, encoding is %d bytes", tup, n, len(enc))
		}
		for _, rec := range [][]byte{enc, legacyTuple(tup)} {
			got, err := DecodeTuple(rec)
			if err != nil || len(got) != len(tup) {
				t.Fatalf("%x (from %v): DecodeTuple = %v, %v", rec, tup, got, err)
			}
			for i := range got {
				if got[i] != tup[i] { // == compares a FLOAT's bits
					t.Fatalf("%x: field %d = %v (%v), want %v (%v)", rec, i, got[i], got[i].Kind(), tup[i], tup[i].Kind())
				}
			}
		}
	})
}

package value

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

// filledTable returns a StringTable holding n strings none of the tests'
// records holds.
func filledTable(n int) *StringTable {
	st := &StringTable{}
	for i := 0; i < n; i++ {
		st.intern([]byte("\xfffill" + strconv.Itoa(i)))
	}
	return st
}

// FuzzInternedDecodeMatchesDecode: decoding through a StringTable gives
// the tuple and the error DecodeTupleInto gives, every field and every
// narrowing alike, whether the table is fresh, fills up during the
// decode, or is full; and an interned string never aliases its record,
// so overwriting the record changes no decoded value. One table lives
// across the fuzzing's inputs, so later inputs meet strings the earlier
// ones interned and a table that has filled.
func FuzzInternedDecodeMatchesDecode(f *testing.F) {
	f.Add(EncodeTuple(nil, Tuple{Int(7), Str("regular"), Float(2.5), Null(), Bool(true)}), uint8(0xff))
	f.Add(EncodeTuple(nil, Tuple{Str("vip"), Str("vip"), Str(""), Str("\x00"), Str("budget")}), uint8(0b10101))
	f.Add(EncodeTuple(nil, Tuple{Str("a"), Str("ab"), Str("abc"), Str("ab")}), uint8(0))
	f.Add(append(EncodeTuple(nil, Tuple{Str("kept")}), 3, 0x7f), uint8(1))
	f.Add([]byte{2, byte(KindString), 5, 'h', 'e'}, uint8(0xff))
	f.Add([]byte{}, uint8(0xff))
	shared := filledTable(maxInterned - 2)
	full := filledTable(maxInterned)
	f.Fuzz(func(t *testing.T, b []byte, mask uint8) {
		needs := [][]bool{nil, make([]bool, 8)}
		for i := range needs[1] {
			needs[1][i] = mask&(1<<i) != 0
		}
		for _, need := range needs {
			want, wantErr := DecodeTupleInto(nil, b, need)
			for _, st := range []*StringTable{{}, shared, full} {
				rec := bytes.Clone(b)
				got, err := st.DecodeTupleInto(nil, rec, need)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%x need %v: interned error %v, want %v", b, need, err, wantErr)
				}
				for i := range rec {
					rec[i] = 0xff
				}
				if !slices.Equal(got, want) { // == compares a FLOAT's bits and a string's bytes
					t.Fatalf("%x need %v: interned decode %v, want %v", b, need, got, want)
				}
				if len(st.strs) > maxInterned {
					t.Fatalf("the table holds %d strings, at most %d", len(st.strs), maxInterned)
				}
			}
		}
	})
}

// TestStringTableInternsUpToItsBound: a string decoded twice is one
// string while the table has room, and a fresh one each time once the
// table is full.
func TestStringTableInternsUpToItsBound(t *testing.T) {
	rec := EncodeTuple(nil, Tuple{Str("segment"), Str("segment")})
	same := func(st *StringTable) bool {
		tup, err := st.DecodeTupleInto(nil, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := tup[0].AsString(), tup[1].AsString()
		return a == b && unsafe.StringData(a) == unsafe.StringData(b)
	}
	if !same(&StringTable{}) {
		t.Error("a fresh table did not intern a repeated string")
	}
	if same(filledTable(maxInterned)) {
		t.Error("a full table interned a new string")
	}
}

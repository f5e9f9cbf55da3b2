package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoding of a Value: a one-byte wire tag, then its payload.
//
//	tag 0  NULL   nothing
//	tag 1  INT    8 bytes little-endian (legacy: read, never written)
//	tag 2  FLOAT  8 bytes little-endian, its Float64bits
//	tag 3  TEXT   uvarint length + bytes
//	tag 4  BOOL   1 byte
//	tag 5  INT    zigzag varint (binary.AppendVarint), 1 to 10 bytes
//
// The tags are wire tags, not kinds: tags 1 and 5 both decode to a
// KindInt. Encode writes tag 5 only, so a small integer costs 2 bytes
// instead of 9; tag 1 is what every log and heap written before the
// compact form holds, and it still decodes.
//
// Tuples are the concatenation of their value encodings preceded by a
// uvarint arity, so rows round-trip without the schema.

// tagIntVarint is the wire tag of a zigzag-varint INT. The other kinds'
// tags are their Kind numbers.
const tagIntVarint = 5

// Encode appends the binary encoding of v to dst and returns the extended
// slice.
func (v Value) Encode(dst []byte) []byte {
	return appendValues(dst, []Value{v})
}

// appendValues appends the encodings of vs to dst, one after another.
// It is the one encoder, and EncodeTuple hands it the whole row: the
// varint INT keeps a per-value encoder from inlining, and a call per
// field cost a row more than the varint itself.
func appendValues(dst []byte, vs []Value) []byte {
	for _, v := range vs {
		if v.kind == KindInt {
			// binary.AppendVarint's bytes, with the zigzag done here:
			// AppendUvarint is the one of the two that inlines.
			dst = binary.AppendUvarint(append(dst, tagIntVarint), zigzag(v.i))
			continue
		}
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindFloat: // a FLOAT's word is its Float64bits
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case KindBool:
			dst = append(dst, byte(v.i))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// decodeFields appends the n values at the head of b to dst and returns
// dst and the bytes after them. need, when non-nil, marks by ordinal the
// values appended; the others are validated and measured the same way
// but not built (no string is allocated). It is the one decoder, and a
// tuple is decoded in one call to it, not one per field: a scan decodes
// every field of every row it reads. st, when non-nil, is the intern
// table a TEXT field's string is taken from.
func decodeFields(dst Tuple, b []byte, n uint64, need []bool, st *StringTable) (Tuple, []byte, error) {
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, nil, fmt.Errorf("value: decode field %d: empty buffer", i)
		}
		keep := need == nil || (i < uint64(len(need)) && need[i])
		rest := b[1:]
		var v Value
		var used int
		switch b[0] {
		case byte(KindNull):
			used = 1
		case tagIntVarint:
			u, sz := binary.Uvarint(rest) // inlines; binary.Varint does not
			switch {
			case sz == 0:
				return nil, nil, fmt.Errorf("value: decode field %d: INT: short buffer", i)
			case sz < 0:
				return nil, nil, fmt.Errorf("value: decode field %d: INT: varint overflows 64 bits", i)
			}
			v, used = Int(unzigzag(u)), 1+sz
		case byte(KindInt): // the legacy fixed-width form
			if len(rest) < 8 {
				return nil, nil, fmt.Errorf("value: decode field %d: INT: short buffer", i)
			}
			v, used = Int(int64(binary.LittleEndian.Uint64(rest))), 9
		case byte(KindFloat):
			if len(rest) < 8 {
				return nil, nil, fmt.Errorf("value: decode field %d: FLOAT: short buffer", i)
			}
			v, used = Float(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 9
		case byte(KindBool):
			if len(rest) < 1 {
				return nil, nil, fmt.Errorf("value: decode field %d: BOOL: short buffer", i)
			}
			v, used = Bool(rest[0] != 0), 2
		case byte(KindString):
			m, sz := binary.Uvarint(rest)
			if sz <= 0 || uint64(len(rest)-sz) < m {
				return nil, nil, fmt.Errorf("value: decode field %d: TEXT: short buffer", i)
			}
			used = 1 + sz + int(m)
			switch {
			case !keep:
			case st != nil:
				v = Str(st.intern(rest[sz : sz+int(m)]))
			default:
				v = Str(string(rest[sz : sz+int(m)]))
			}
		default:
			return nil, nil, fmt.Errorf("value: decode field %d: bad kind tag %d", i, b[0])
		}
		if keep {
			dst = append(dst, v)
		}
		b = b[used:]
	}
	return dst, b, nil
}

// encodedLen returns the length of v's encoding: len(v.Encode(nil)).
func (v Value) encodedLen() int {
	switch v.kind {
	case KindInt:
		return 1 + uvarintLen(zigzag(v.i))
	case KindFloat:
		return 9
	case KindBool:
		return 2
	case KindString:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	}
	return 1
}

// uvarintLen returns how many bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// zigzag maps x to the unsigned word binary.AppendVarint writes as a
// uvarint: 0, -1, 1, -2, ... to 0, 1, 2, 3, ..., so small magnitudes of
// either sign take few bytes.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodedLen returns the length of t's encoding, len(EncodeTuple(nil,
// t)): a buffer of that capacity takes the encoding in one allocation.
func EncodedLen(t Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n += v.encodedLen()
	}
	return n
}

// EncodeTuple appends the binary encoding of t to dst.
func EncodeTuple(dst []byte, t Tuple) []byte {
	return appendValues(binary.AppendUvarint(dst, uint64(len(t))), t)
}

// DecodeTuple parses a tuple encoded by EncodeTuple into a fresh Tuple.
func DecodeTuple(b []byte) (Tuple, error) {
	return DecodeTupleInto(nil, b, nil)
}

// DecodeTupleInto is DecodeTuple into caller-owned storage: the fields
// are appended to dst[:0], which is reallocated only when they do not
// fit in cap(dst), and the (possibly moved) tuple is returned. A scan
// that decodes every record into the same dst allocates nothing per row
// but the strings it keeps.
//
// need, when non-nil, marks by ordinal the fields the caller reads, and
// only those are appended, in record order: the tuple is the record
// narrowed to them. The others (and any ordinal past len(need)) are
// validated exactly like the rest — a corrupt record fails whichever
// field it is corrupt in — but not built.
func DecodeTupleInto(dst Tuple, b []byte, need []bool) (Tuple, error) {
	return decodeTuple(dst, b, need, nil)
}

// maxInterned is the number of distinct strings a StringTable keeps.
const maxInterned = 1 << 12

// StringTable interns the TEXT values a pass over a store decodes: a
// field whose bytes the table holds is given the string it holds, and a
// new one is copied once and kept, until the table holds maxInterned
// strings; past that, a new string is copied every time it is decoded, as
// DecodeTupleInto does. A pass that keeps a column's distinct values, or
// only counts them, then allocates per distinct string rather than per
// row. A string is always a copy: none aliases the record it came from.
//
// The zero StringTable is ready to use. It is one pass's, not safe for
// concurrent use, and keeps what it interned alive while it lives.
type StringTable struct {
	strs map[string]string
}

// DecodeTupleInto is value.DecodeTupleInto with each TEXT field's string
// taken from st.
func (st *StringTable) DecodeTupleInto(dst Tuple, b []byte, need []bool) (Tuple, error) {
	return decodeTuple(dst, b, need, st)
}

// intern returns b as a string: the table's when it holds b.
func (st *StringTable) intern(b []byte) string {
	if s, ok := st.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(st.strs) < maxInterned {
		if st.strs == nil {
			st.strs = make(map[string]string)
		}
		st.strs[s] = s
	}
	return s
}

// decodeTuple is DecodeTupleInto, interning TEXT in st when it is non-nil.
func decodeTuple(dst Tuple, b []byte, need []bool, st *StringTable) (Tuple, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("value: decode tuple: bad arity")
	}
	b = b[sz:]
	if n > uint64(len(b)) { // every field takes a byte at least
		return nil, fmt.Errorf("value: decode tuple: arity %d exceeds the record", n)
	}
	if need == nil && uint64(cap(dst)) < n {
		dst = make(Tuple, 0, n)
	}
	dst, _, err := decodeFields(dst[:0], b, n, need, st)
	if err != nil {
		return nil, fmt.Errorf("value: decode tuple: %w", err)
	}
	return dst, nil
}

// SortKey appends an order-preserving binary encoding of v, used as
// B+-tree key material: for values a, b of kinds comparable under
// Compare, bytes.Compare(SortKey(a), SortKey(b)) has Compare(a, b)'s
// sign, or is 0. It may merge values Compare distinguishes — INTs past
// 2^53 share their float's key, so a seek overscans and the filter
// re-checks — but never splits values Compare ties, nor inverts an order.
func (v Value) SortKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindInt, KindFloat:
		dst = append(dst, 0x01)
		f := canonFloat(v.AsFloat())
		if math.IsNaN(f) {
			// NaN sorts below every number, -Inf included.
			return binary.BigEndian.AppendUint64(dst, 0)
		}
		bits := math.Float64bits(f)
		// Flip for order preservation: positive floats get the sign bit
		// set; negative floats are fully complemented.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case KindBool:
		return append(dst, 0x02, byte(v.i))
	case KindString:
		// 0x03 tag, then bytes with 0x00 escaped as 0x00 0xFF, terminated
		// by 0x00 0x00 so prefixes order correctly.
		dst = append(dst, 0x03)
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, 0x00, 0x00)
	}
	return dst
}

package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoding of a Value:
//
//	byte 0: kind tag
//	INT/FLOAT: 8 bytes little-endian payload
//	BOOL: 1 byte
//	TEXT: uvarint length + bytes
//	NULL: nothing
//
// Tuples are the concatenation of their value encodings preceded by a
// uvarint arity, so rows round-trip without the schema.

// Encode appends the binary encoding of v to dst and returns the extended
// slice.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindFloat: // a FLOAT's word is its Float64bits
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case KindBool:
		dst = append(dst, byte(v.i))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// DecodeValue reads one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	return decodeValue(b, true)
}

// decodeValue is DecodeValue; with keep false the encoding is validated
// and measured the same way but the value is not built (no string is
// allocated) and NULL is returned in its place.
func decodeValue(b []byte, keep bool) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("value: decode: empty buffer")
	}
	k := Kind(b[0])
	rest := b[1:]
	var v Value
	var used int
	switch k {
	case KindNull:
		used = 1
	case KindInt:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("value: decode INT: short buffer")
		}
		v, used = Int(int64(binary.LittleEndian.Uint64(rest))), 9
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("value: decode FLOAT: short buffer")
		}
		v, used = Float(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 9
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("value: decode BOOL: short buffer")
		}
		v, used = Bool(rest[0] != 0), 2
	case KindString:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < n {
			return Value{}, 0, fmt.Errorf("value: decode TEXT: short buffer")
		}
		used = 1 + sz + int(n)
		if keep {
			v = Str(string(rest[sz : sz+int(n)]))
		}
	default:
		return Value{}, 0, fmt.Errorf("value: decode: bad kind tag %d", b[0])
	}
	if !keep {
		v = Value{}
	}
	return v, used, nil
}

// encodedLen returns the length of v's encoding: len(v.Encode(nil)).
func (v Value) encodedLen() int {
	switch v.kind {
	case KindInt, KindFloat:
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
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
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
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		keep := need == nil || (i < uint64(len(need)) && need[i])
		v, used, err := decodeValue(b, keep)
		if err != nil {
			return nil, fmt.Errorf("value: decode tuple field %d: %w", i, err)
		}
		if keep {
			dst = append(dst, v)
		}
		b = b[used:]
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

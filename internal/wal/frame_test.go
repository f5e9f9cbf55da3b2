package wal

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"minequery/internal/storage"
	"minequery/internal/value"
)

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

// pinnedDDL and pinnedDML are the two records whose frames
// TestFrameBytesPinned pins.
var (
	pinnedDDL = Record{Kind: RecordDDL, DDL: "CREATE MODEL m ON t PREDICT c USING dtree AS SELECT a, c FROM t"}
	pinnedDML = Record{Kind: RecordDML, Table: "events", Muts: []Mutation{
		{Op: OpInsert, Rec: value.EncodeTuple(nil, value.Tuple{value.Int(7), value.Str("c3"), value.Float(2.5), value.Null(), value.Bool(true)})},
		{Op: OpDelete, RID: storage.RID{Page: 300, Slot: 17}},
		{Op: OpUpdate, RID: storage.RID{Page: 2, Slot: 65535},
			Rec: value.EncodeTuple(nil, value.Tuple{value.Int(-1), value.Str(""), value.Float(0), value.Int(1 << 40), value.Bool(false)})},
	}}
)

// legacyDML is pinnedDML's frame as logs held it before an INT was
// written as a zigzag varint (value tag 5): every INT a tag 1 and 8
// bytes little-endian.
const legacyDML = "540000004f6cc0a301066576656e747303011a0501070000000000000003026333020000000000000440000401022c01000011000302000000ffff200501ffffffffffffffff03000200000000000000000100000000000100000400"

// TestFrameBytesPinned: the log format does not move. A DDL record and a
// DML record holding an insert, a delete and an update encode to the
// bytes pinned here; a change here is a change to the format on disk,
// and to the rows the heap stores (they are the same bytes). The DML
// frame's rows hold their INTs as zigzag varints; the same frame as
// earlier logs hold it, with fixed-width INTs (legacyDML), still decodes
// to the same record, row for row.
func TestFrameBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		what string
		rec  Record
		want string
	}{
		{"DDL", pinnedDDL, "40000000f63a595e02435245415445204d4f44454c206d204f4e207420505245444943542063205553494e472064747265652041532053454c45435420612c20632046524f4d2074"},
		{"DML", pinnedDML, "440000006e5ea8e001066576656e747303011305050e03026333020000000000000440000401022c01000011000302000000ffff170505010300020000000000000000058080808080400400"},
	} {
		frame := encodeFrame(tc.rec)
		if got := hex.EncodeToString(frame); got != tc.want {
			t.Errorf("%s frame =\n%s\nwant\n%s", tc.what, got, tc.want)
		}
		if len(frame) != cap(frame) {
			t.Errorf("%s frame: len %d, cap %d: the buffer is not sized to the frame", tc.what, len(frame), cap(frame))
		}
		got, n, ok := decodeFrame(frame)
		if !ok || n != len(frame) || !reflect.DeepEqual(got, tc.rec) {
			t.Errorf("%s: decodeFrame = %+v, %d, %v; want %+v, %d, true", tc.what, got, n, ok, tc.rec, len(frame))
		}
	}
	frame, _ := hex.DecodeString(legacyDML)
	got, n, ok := decodeFrame(frame)
	if !ok || n != len(frame) || got.Kind != pinnedDML.Kind || got.Table != pinnedDML.Table || len(got.Muts) != len(pinnedDML.Muts) {
		t.Fatalf("legacy DML: decodeFrame = %+v, %d, %v; want %+v, %d, true", got, n, ok, pinnedDML, len(frame))
	}
	for i, m := range got.Muts {
		want := pinnedDML.Muts[i]
		if m.Op != want.Op || m.RID != want.RID {
			t.Errorf("legacy DML mutation %d = %v %v, want %v %v", i, m.Op, m.RID, want.Op, want.RID)
		}
		if want.Rec == nil {
			continue
		}
		row, err := value.DecodeTuple(m.Rec)
		wantRow, _ := value.DecodeTuple(want.Rec)
		if err != nil || !reflect.DeepEqual(row, wantRow) {
			t.Errorf("legacy DML mutation %d: row %v, %v; want %v", i, row, err, wantRow)
		}
	}
}

// TestAllocEncodeFrameOnce: a frame is built in one allocation, header
// and payload together.
func TestAllocEncodeFrameOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, rec := range []Record{pinnedDDL, pinnedDML} {
		if n := testing.AllocsPerRun(100, func() { encodeFrame(rec) }); n != 1 {
			t.Errorf("encodeFrame(%v record) allocates %v times, want 1", rec.Kind, n)
		}
	}
}

// FuzzWALFrame: decodeFrame never panics on arbitrary bytes, and a frame
// it accepts re-encodes to a frame that decodes to the same record,
// consuming exactly the encoded length.
func FuzzWALFrame(f *testing.F) {
	f.Add(encodeFrame(pinnedDDL))
	f.Add(encodeFrame(pinnedDML))
	if legacy, err := hex.DecodeString(legacyDML); err == nil {
		f.Add(legacy)
	}
	f.Add(encodeFrame(Record{Kind: RecordDML, Table: "t"}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, frameHeader+4))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, ok := decodeFrame(b)
		if !ok {
			return
		}
		if n < frameHeader || n > len(b) {
			t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(b))
		}
		frame := encodeFrame(r)
		got, m, ok := decodeFrame(frame)
		if !ok || m != len(frame) || !reflect.DeepEqual(got, r) {
			t.Fatalf("re-encoded %+v: decodeFrame = %+v, %d, %v; want the record, %d, true", r, got, m, ok, len(frame))
		}
	})
}

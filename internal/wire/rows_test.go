package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"minequery/internal/value"
)

// encodeRows is the definition AppendRow is held to: the server's
// encoder (json.Encoder, HTML escaping on) over Rows' cells.
func encodeRows(rows []value.Tuple) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Rows(rows)); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// appendRows builds the array the way the server's sink does.
func appendRows(rows []value.Tuple) ([]byte, error) {
	out := []byte{'['}
	for i, row := range rows {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = AppendRow(out, row); err != nil {
			return nil, err
		}
	}
	return append(out, ']'), nil
}

// checkSameBytes demands of AppendRow what encoding/json does with the
// same rows: the same bytes, or an error where it has one. It also puts
// the appended array through RowSet, as the server's body does, where
// encoding/json re-validates and compacts it: that must change nothing.
func checkSameBytes(t *testing.T, rows []value.Tuple) {
	t.Helper()
	want, wantErr := encodeRows(rows)
	got, gotErr := appendRows(rows)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("rows %v: AppendRow err %v, encoding/json err %v", rows, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rows %v:\n AppendRow %s\n  encoding/json %s", rows, got, want)
	}
	viaBody, err := json.Marshal(struct {
		Rows RowSet `json:"rows"`
	}{RowSet{Encoded: got}})
	if err != nil {
		t.Fatalf("rows %v: the appended array is not valid JSON: %v", rows, err)
	}
	if wantBody := append(append([]byte(`{"rows":`), want...), '}'); !bytes.Equal(viaBody, wantBody) {
		t.Fatalf("rows %v: through RowSet %s, want %s", rows, viaBody, wantBody)
	}
}

func TestAppendRow(t *testing.T) {
	for _, row := range []value.Tuple{
		{},
		{value.Null()},
		{value.Int(0), value.Int(-1), value.Int(math.MaxInt64), value.Int(math.MinInt64)},
		{value.Bool(true), value.Bool(false), value.Null(), value.Int(7)},
		// Floats on both sides of encoding/json's switch to exponent
		// notation, the exponent clean-up (e-07, not e-7… and e+21), -0,
		// and the extremes.
		{value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(-2.5), value.Float(100)},
		{value.Float(1e-6), value.Float(0.99e-6), value.Float(-1e-6), value.Float(-9.9e-7), value.Float(1e-7), value.Float(1.5e-10)},
		{value.Float(1e21), value.Float(9.99e20), value.Float(-1e21), value.Float(-9.99e20), value.Float(1.5e300)},
		{value.Float(math.MaxFloat64), value.Float(math.SmallestNonzeroFloat64), value.Float(0.1), value.Float(1.0 / 3)},
		{value.Float(123456789.125), value.Float(1e20), value.Float(float64(1 << 53))},
		// Strings: plain, empty, everything encoding/json escapes with HTML
		// escaping on, DEL, multi-byte, and invalid UTF-8.
		{value.Str(""), value.Str("plain ascii ~ |{}[]"), value.Str("vip")},
		{value.Str(`say "hi"`), value.Str(`back\slash`), value.Str("tab\there"), value.Str("nl\ncr\r"), value.Str("\x00\x01\x1f\b\f")},
		{value.Str("a<b"), value.Str("a>b"), value.Str("a&b"), value.Str("</script>"), value.Str("\x7f")},
		{value.Str("line\u2028sep"), value.Str("para\u2029sep"), value.Str("héllo wörld"), value.Str("日本語"), value.Str("😀")},
		{value.Str("bad\xffutf8"), value.Str("\xc3"), value.Str("\xe2\x80"), value.Str("ok\xed\xa0\x80")},
	} {
		checkSameBytes(t, []value.Tuple{row})
		checkSameBytes(t, []value.Tuple{row, row})
	}
	checkSameBytes(t, nil)

	// The one cell JSON cannot carry: an error from both, never bytes.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		row := value.Tuple{value.Int(1), value.Float(f)}
		if _, err := AppendRow(nil, row); err == nil {
			t.Errorf("AppendRow(%v) = nil error", row)
		}
		checkSameBytes(t, []value.Tuple{row})
	}
}

// FuzzAppendRow is the differential: a row of one cell of every kind,
// built from the fuzzer's values, must encode as encoding/json encodes
// it.
func FuzzAppendRow(f *testing.F) {
	f.Add(int64(0), 0.0, "", true)
	f.Add(int64(-42), 1e-6, `q"\<>&`, false)
	f.Add(int64(math.MaxInt64), 1e21, "\u2028\u2029\x7f\x00", true)
	f.Add(int64(1), math.Copysign(0, -1), "bad\xff", false)
	f.Add(int64(1), math.Inf(1), "x", false)
	f.Add(int64(1), 9.999999999999999e20, "plain", true)
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b bool) {
		checkSameBytes(t, []value.Tuple{{value.Int(i), value.Float(fl), value.Str(s), value.Bool(b), value.Null()}})
	})
}

// TestAllocAppendRowPlain: the cells answers are made of — integers,
// plain strings, fixed-notation floats, booleans, NULL — are appended
// without a detour through encoding/json, which allocates per cell.
func TestAllocAppendRowPlain(t *testing.T) {
	row := value.Tuple{value.Int(-12345), value.Str("regular"), value.Float(0.125), value.Bool(true), value.Null()}
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendRow(buf[:0], row) }); n != 0 {
		t.Fatalf("AppendRow of a plain row allocates %v times", n)
	}
}

package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minequery/internal/value"
)

// cellsOf converts result tuples to Go values, the cells encoding/json
// is given: AppendRow's definition.
func cellsOf(rows []value.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case value.KindNull:
				vals[j] = nil
			case value.KindInt:
				vals[j] = v.AsInt()
			case value.KindFloat:
				vals[j] = v.AsFloat()
			case value.KindBool:
				vals[j] = v.AsBool()
			default:
				vals[j] = v.AsString()
			}
		}
		out[i] = vals
	}
	return out
}

// jsonRows is the definition AppendRow is held to: the server's
// encoder (json.Encoder, HTML escaping on) over the rows' cells.
func jsonRows(rows []value.Tuple) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(cellsOf(rows)); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// checkSameBytes demands of AppendRow what encoding/json does with the
// same rows: the same bytes, or an error where it has one. It also puts
// the appended array through RowSet both ways, as a node's body and a
// coordinator's decode do, where encoding/json re-validates and compacts
// it: that must change nothing, and the decode must count every row.
func checkSameBytes(t *testing.T, rows []value.Tuple) {
	t.Helper()
	want, wantErr := jsonRows(rows)
	set, gotErr := EncodeRows(rows)
	got := set.Encoded
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
	}{set})
	if err != nil {
		t.Fatalf("rows %v: the appended array is not valid JSON: %v", rows, err)
	}
	if wantBody := append(append([]byte(`{"rows":`), want...), '}'); !bytes.Equal(viaBody, wantBody) {
		t.Fatalf("rows %v: through RowSet %s, want %s", rows, viaBody, wantBody)
	}
	var back struct {
		Rows RowSet `json:"rows"`
	}
	if err := json.Unmarshal(viaBody, &back); err != nil || !bytes.Equal(back.Rows.Encoded, want) || back.Rows.N != len(rows) || set.N != len(rows) {
		t.Fatalf("rows %v: decoded as %s (%d rows), %v", rows, back.Rows.Encoded, back.Rows.N, err)
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

// concatOracle is what ConcatRows must produce: AppendRow over the
// first limit rows of the parts' rows in order.
func concatOracle(t *testing.T, parts [][]value.Tuple, limit int64) RowSet {
	t.Helper()
	var all []value.Tuple
	for _, p := range parts {
		all = append(all, p...)
	}
	if limit >= 0 && int64(len(all)) > limit {
		all = all[:limit]
	}
	want, err := EncodeRows(all)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// encodeParts encodes each part as a node does.
func encodeParts(t *testing.T, parts [][]value.Tuple) []RowSet {
	t.Helper()
	out := make([]RowSet, len(parts))
	for i, p := range parts {
		var err error
		if out[i], err = EncodeRows(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func checkConcat(t *testing.T, parts [][]value.Tuple, limit int64) {
	t.Helper()
	want := concatOracle(t, parts, limit)
	got := ConcatRows(encodeParts(t, parts), limit)
	if got.N != want.N || !bytes.Equal(got.Encoded, want.Encoded) {
		t.Fatalf("limit %d: ConcatRows = %s (%d rows), want %s (%d rows)", limit, got.Encoded, got.N, want.Encoded, want.N)
	}
}

// TestMergeOrdered: the coordinator's merge is the shards' rows in shard
// order, cut where a single node's LIMIT would have stopped.
func TestMergeOrdered(t *testing.T) {
	row := func(i int64) value.Tuple { return value.Tuple{value.Int(i), value.Str("]\",[")} }
	parts := [][]value.Tuple{{row(1), row(2)}, nil, {row(3)}, {}, {row(4), row(5), row(6)}}
	for _, tc := range []struct {
		name  string
		limit int64
	}{
		{"no-limit", -1},
		{"limit-zero", 0},
		{"limit-mid-source", 4},
		{"limit-on-boundary", 3},
		{"limit-over", 99},
	} {
		t.Run(tc.name, func(t *testing.T) { checkConcat(t, parts, tc.limit) })
	}
	if got := ConcatRows(nil, -1); string(got.Encoded) != "[]" || got.N != 0 {
		t.Errorf("nil parts: got %s (%d rows)", got.Encoded, got.N)
	}
	// A part decoded from a body with white space in it cuts the same.
	var spaced RowSet
	if err := json.Unmarshal([]byte(` [ [1, "a ] b"] , [2,{"k": [3]}] ,[3] ] `), &spaced); err != nil {
		t.Fatal(err)
	}
	if got := ConcatRows([]RowSet{spaced, spaced}, 4); string(got.Encoded) != `[[1,"a ] b"],[2,{"k":[3]}],[3],[1,"a ] b"]]` || got.N != 4 {
		t.Errorf("spaced parts: got %s (%d rows)", got.Encoded, got.N)
	}
}

// FuzzConcatRows: random rows, strings full of brackets, quotes,
// backslashes and non-ASCII, split into random parts, cut at a random
// limit, must concatenate to AppendRow's bytes over the rows kept.
func FuzzConcatRows(f *testing.F) {
	f.Add(int64(1), int64(-1))
	f.Add(int64(2), int64(0))
	f.Add(int64(3), int64(5))
	f.Add(int64(4), int64(1000))
	f.Fuzz(func(t *testing.T, seed, limit int64) {
		if limit < -1 {
			limit = -1
		}
		r := rand.New(rand.NewSource(seed))
		const alphabet = "ab[]\",\\{}: é日\x00<"
		str := func() value.Value {
			runes := []rune(alphabet)
			b := make([]rune, r.Intn(8))
			for i := range b {
				b[i] = runes[r.Intn(len(runes))]
			}
			return value.Str(string(b))
		}
		cell := func() value.Value {
			switch r.Intn(5) {
			case 0:
				return value.Null()
			case 1:
				return value.Int(r.Int63n(2000) - 1000)
			case 2:
				return value.Float(r.NormFloat64() * 1e3)
			case 3:
				return value.Bool(r.Intn(2) == 0)
			}
			return str()
		}
		parts := make([][]value.Tuple, r.Intn(5))
		for i := range parts {
			parts[i] = make([]value.Tuple, r.Intn(6))
			for j := range parts[i] {
				parts[i][j] = make(value.Tuple, r.Intn(4))
				for k := range parts[i][j] {
					parts[i][j][k] = cell()
				}
			}
		}
		checkConcat(t, parts, limit)
	})
}

// TestRowSetRejectsNonRows: rows that are not an array of arrays fail
// the answer's decode, as a decode into cells did.
func TestRowSetRejectsNonRows(t *testing.T) {
	for name, rows := range map[string]string{
		"object":         `{"a":[1]}`,
		"scalar element": `[[1],2]`,
		"string element": `[[1],"[2]"]`,
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.WriteString(w, `{"statement_id":"q1","rows":`+rows+`,"row_count":1}`)
			}))
			defer srv.Close()
			var out ExecuteResponse
			err := Call(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &out)
			if err == nil || !strings.HasPrefix(err.Error(), "decode response: ") {
				t.Fatalf("rows %s: Call returned %v, want a decode error", rows, err)
			}
		})
	}
}

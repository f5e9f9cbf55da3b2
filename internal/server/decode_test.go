package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"minequery/internal/wire"
)

// decodeFresh is decodeBody as it was before decoders were pooled: a new
// json.Decoder for every request. Its error texts are the ones clients
// have always read.
func decodeFresh(body string, v any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("decode request: " + err.Error())
	}
	return nil
}

func decodeString(body string, v any) error {
	return decodeBody(httptest.NewRequest(http.MethodPost, "/v1/execute", strings.NewReader(body)), v)
}

// TestDecodeBodyKeepsErrors: a pooled decoder answers every malformed
// body with the text a fresh one gives, whether the decoder it was handed
// has served a request before or not.
func TestDecodeBodyKeepsErrors(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	exact := map[string]string{
		`{"statement_id":"q1","bogus":1}`: `decode request: json: unknown field "bogus"`,
		`{"sql": x}`:                      `decode request: invalid character 'x' looking for beginning of value`,
	}
	bodies := []string{
		`{"statement_id":"q1","bogus":1}`,
		`{"sql": x}`,
		`{"sql":"a"`,
		``,
		"  \n",
		`{"timeout_ms":"5"}`,
		`[1]`,
		`nul`,
		`{"sql":"a","sql":}`,
	}
	for _, warm := range []string{"", `{"sql":"warm"}`, "{\"sql\":\"warm\"}\n\t "} {
		for _, body := range bodies {
			if warm != "" {
				// Leaves a pooled decoder, its buffer holding warm's
				// trailing white space, for the body under test.
				var req wire.ExecuteRequest
				if err := decodeString(warm, &req); err != nil || req.SQL != "warm" {
					t.Fatalf("warm-up %q: %+v, %v", warm, req, err)
				}
			}
			var got, want wire.ExecuteRequest
			gerr, werr := decodeString(body, &got), decodeFresh(body, &want)
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("body %q after %q: pooled decoder says %v, a fresh one %v", body, warm, gerr, werr)
			}
			if text, ok := exact[body]; ok && gerr.Error() != text {
				t.Fatalf("body %q: %q, want %q", body, gerr.Error(), text)
			}
			if code, _ := classify(gerr); code != wire.CodeBadRequest {
				t.Fatalf("body %q: code %q, want %q", body, code, wire.CodeBadRequest)
			}
		}
	}
}

// TestDecodeBodyPoolNotPoisoned: a body with bytes after its value still
// decodes, as it always has, and neither it nor a truncated body leaves
// anything for the next request to read. On one P with the collector off
// the pool hands back the decoder it was given last, so a decoder
// returned with trailing bytes or a sticky error would fail the good
// body.
func TestDecodeBodyPoolNotPoisoned(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var req wire.ExecuteRequest
	if err := decodeString(`{"sql":"first"} {"sql":"junk"} !!`, &req); err != nil || req.SQL != "first" {
		t.Fatalf("trailing junk: %+v, %v", req, err)
	}
	req = wire.ExecuteRequest{}
	if err := decodeString(`{"sql":"trunc`, &req); err == nil {
		t.Fatal("a truncated body decoded")
	}
	req = wire.ExecuteRequest{}
	if err := decodeString(`{"statement_id":"good"}`, &req); err != nil || req.StatementID != "good" || req.SQL != "" {
		t.Fatalf("good body after junk and a truncated body: %+v, %v", req, err)
	}
	req = wire.ExecuteRequest{}
	if err := decodeString("{\"sql\":\"again\"}\r\n", &req); err != nil || req.SQL != "again" {
		t.Fatalf("good body after a good body: %+v, %v", req, err)
	}
}

// TestDecodeBodyConcurrent: requests decoded at once, good ones among
// malformed and trailing-junk ones, each get their own value (run it
// under -race).
func TestDecodeBodyConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				var req wire.ExecuteRequest
				var body string
				switch i % 4 {
				case 0:
					body = `{"statement_id":"` + id + `"}`
				case 1:
					body = `{"statement_id":"` + id + `"}` + " trailing " + id
				case 2:
					body = `{"statement_id":"` + id + `","dop":`
				case 3:
					body = `{"statement_id":"` + id + `","nope":true}`
				}
				err := decodeString(body, &req)
				if i%4 >= 2 {
					if err == nil {
						t.Errorf("%s: malformed body decoded", id)
					}
					continue
				}
				if err != nil || req.StatementID != id {
					t.Errorf("%s: got %+v, %v", id, req, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllocDecodeBody: a statement_id request allocates its string and
// nothing else, on one P with the collector off: the decoder and its
// buffer come from the pool.
func TestAllocDecodeBody(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector, whose sync.Pool drops what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const body = `{"statement_id":"q1"}`
	rd := strings.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/execute", nil)
	r.Body = io.NopCloser(rd)
	var req wire.ExecuteRequest
	decode := func() {
		rd.Reset(body)
		req = wire.ExecuteRequest{}
		if err := decodeBody(r, &req); err != nil || req.StatementID != "q1" {
			t.Fatalf("decode: %+v, %v", req, err)
		}
	}
	decode() // builds the pooled decoder
	if n := testing.AllocsPerRun(100, decode); n != 1 {
		t.Fatalf("a statement_id request makes %v allocations, want 1 (its string)", n)
	}
}

// bodyWriter is an http.ResponseWriter that keeps the status and the
// body in storage it reuses.
type bodyWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *bodyWriter) Header() http.Header { return w.header }

func (w *bodyWriter) WriteHeader(status int) { w.status = status }

func (w *bodyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// TestAllocWriteJSON: answering an epoch-only shard-info probe allocates
// the answer boxed as an interface and nothing else, on one P with the
// collector off: the buffer and the encoder come from the pool, and the
// Content-Type header is set without building its value.
func TestAllocWriteJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector, whose sync.Pool drops what it is given")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := &bodyWriter{header: http.Header{}}
	w.body.Grow(256)
	write := func() {
		w.body.Reset()
		writeJSON(w, http.StatusOK, wire.ShardInfoResponse{Epoch: 7})
	}
	write() // builds the pooled encoder
	if got, want := w.body.String(), "{\"epoch\":7,\"tables\":null,\"models\":null}\n"; w.status != http.StatusOK || got != want {
		t.Fatalf("writeJSON answered %d %q, want 200 %q", w.status, got, want)
	}
	if got := w.header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", got)
	}
	if n := testing.AllocsPerRun(100, write); n > 1 {
		t.Fatalf("an epoch-only shard-info answer makes %v allocations, want at most 1 (the answer as an interface)", n)
	}
}

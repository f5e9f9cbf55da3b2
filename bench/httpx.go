package main

// In-process HTTP: handlers are called through ServeHTTP on a reusable
// recorder, so a request costs what the server does with it and no
// socket, kernel buffer or connection pool adds noise.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// recorder is a minimal reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	r.code = 0
	r.body.Reset()
	for k := range r.hdr {
		delete(r.hdr, k)
	}
}

// serve sends one request to h and leaves the answer in rec.
func serve(h http.Handler, rec *recorder, method, path string, body []byte) {
	rec.reset()
	var req *http.Request
	if body != nil {
		req, _ = http.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req, _ = http.NewRequest(method, path, nil)
	}
	h.ServeHTTP(rec, req)
}

// call is serve plus decoding the JSON answer into out; a non-200 is an
// error. For set-up and verification, never inside a timed op.
func call(h http.Handler, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	rec := newRecorder()
	serve(h, rec, method, path, body)
	if rec.code != http.StatusOK {
		return fmt.Errorf("%s %s: http %d: %s", method, path, rec.code, bytes.TrimSpace(rec.body.Bytes()))
	}
	if out == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(rec.body.Bytes()))
	dec.UseNumber()
	return dec.Decode(out)
}

// jsonBody renders {"key": "val"} once, outside the timed section.
func jsonBody(key, val string) []byte {
	b, _ := json.Marshal(map[string]string{key: val})
	return b
}

var rowCountKey = []byte(`"row_count":`)

// rowCount reads row_count out of an execute answer without decoding
// the rows: the client's own JSON decoding is not what is measured.
func rowCount(body []byte) int {
	i := bytes.LastIndex(body, rowCountKey)
	if i < 0 {
		return -1
	}
	j := i + len(rowCountKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(body[j:k]))
	if err != nil {
		return -1
	}
	return n
}

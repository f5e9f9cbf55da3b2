package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"minequery/internal/cluster"
	"minequery/internal/server"
	"minequery/internal/wire"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// discardWriter answers into nothing, counting the body's bytes.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// forwardedRowBytes bounds what a coordinator allocates for a row it
// forwards, as a multiple of the row's encoded length: one copy out of
// the read buffer as the shard's answer is decoded, one into the merged
// array — 2.1 times, measured. Decoding a row into cells and encoding it
// again cost 19.9 times: 405 B for a row of 20 bytes.
const forwardedRowBytes = 3

// TestAllocCoordinatorForwardsRows: between a shard's answer and the
// client, a coordinator copies a row's bytes and nothing else — it
// neither decodes the row into cells nor encodes it again. Requests for
// 4 times the rows are measured on one P with the collector off, as
// checkAllocFlat measures a scan, through the coordinator's HTTP
// handler, with the fleet's shard servers in the same process.
func TestAllocCoordinatorForwardsRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector, whose sync.Pool drops what it is given")
	}
	tc := newTestCluster(t, 2, []int64{4}, 4000, cluster.Config{Retry: fastRetry})
	h := server.NewCoord(tc.coord, 0).Handler()
	perRequest := func(rows int) (alloc uint64, encoded int) {
		body, err := json.Marshal(wire.ExecuteRequest{SQL: fmt.Sprintf("SELECT id, age, income, segment FROM customers WHERE id < %d", rows)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
		var resp wire.CoordExecuteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK ||
			resp.RowCount != rows || resp.Shards.Queried != 2 {
			t.Fatalf("execute: %d, %d rows from %d shards, %v", rec.Code, resp.RowCount, resp.Shards.Queried, err)
		}
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			w.status = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
			if w.status != http.StatusOK {
				t.Fatalf("execute: status %d", w.status)
			}
		}
		serve() // warms the pools with buffers of this answer's size
		const n = 10
		alloc = ^uint64(0)
		for k := 0; k < 3; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				serve()
			}
			runtime.ReadMemStats(&after)
			alloc = min(alloc, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		return alloc, len(resp.Rows.Encoded)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 500
	a, encA := perRequest(rows)
	b, encB := perRequest(4 * rows)
	extra := (float64(b) - float64(a)) / float64(3*rows)
	rowLen := float64(encB-encA) / float64(3*rows)
	t.Logf("%d B for %d rows, %d B for %d: %.1f B per extra forwarded row of %.1f encoded bytes (%.2fx)",
		a, rows, b, 4*rows, extra, rowLen, extra/rowLen)
	if extra > forwardedRowBytes*rowLen {
		t.Fatalf("a forwarded row costs %.1f B, %.2f times its %.1f encoded bytes (at most %d times): the coordinator decodes what it forwards",
			extra, extra/rowLen, rowLen, forwardedRowBytes)
	}
}

package minequery_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	mq "minequery"
	"minequery/internal/server"
	"minequery/internal/wire"
)

// TestSustainedWritesHoldState drives the benchmark's write_stream
// statement mix in-process — per cycle 27 INSERTs of 16 rows, one DELETE
// of the 432 oldest and two UPDATEs of 64, on a 6-column table whose
// live row count stays put — with two retraining models, standing
// subscriptions and a server answering a mining read after every cycle.
// Between N and 2N cycles nothing the engine holds may grow with the
// write history:
//   - the page bytes the table holds per live row (a page count would
//     still grow: page addresses are never freed, only their bytes);
//   - the Go heap after GC;
//   - the standing set (subscriptions, nothing dropped), the server's
//     statement registry and its envelope cache.
//
// The engine runs without a WAL: a log grows with every write by
// design, until it is checkpointed.
func TestSustainedWritesHoldState(t *testing.T) {
	const (
		rows, n             = 4000, 20 // live rows; cycles to the first reading
		inserts, insertRows = 27, 16
		updates, updateRows = 2, 64
		deleteRows          = inserts * insertRows
		cycleWrites         = 2*deleteRows + updates*updateRows
		retrainCycles       = 5 // N and 2N fall at the same point of the retrain period
	)
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	row := func(id int64) string {
		cat, num := r.Intn(16), r.Intn(10000)
		cls, grp := "low", "a"
		if num >= 8500 {
			cls = "high"
		}
		if cat >= 8 {
			grp = "b"
		}
		return fmt.Sprintf("(%d, 'c%d', %d, 0, '%s', '%s')", id, cat, num, cls, grp)
	}
	eng := mq.NewWithConfig(mq.Config{StandingQueue: 1 << 15})
	eng.SetDOP(1)
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nil, eng.CreateTable("events", mq.MustSchema(
		mq.Column{Name: "id", Kind: mq.KindInt}, mq.Column{Name: "cat", Kind: mq.KindString},
		mq.Column{Name: "num", Kind: mq.KindInt}, mq.Column{Name: "flag", Kind: mq.KindInt},
		mq.Column{Name: "cls", Kind: mq.KindString}, mq.Column{Name: "grp", Kind: mq.KindString})))
	nextID, lowID := int64(0), int64(0)
	var b strings.Builder
	insert := func() { // one INSERT of insertRows new rows
		b.Reset()
		b.WriteString("INSERT INTO events VALUES ")
		for j := range insertRows {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(row(nextID))
			nextID++
		}
		must(eng.Exec(ctx, b.String()))
	}
	for range rows / insertRows {
		insert()
	}
	must(eng.Exec(ctx, `CREATE MODEL dt ON events PREDICT cls USING dtree AS SELECT num, cls FROM events`))
	must(eng.Exec(ctx, `CREATE MODEL nb ON events PREDICT grp USING nbayes AS SELECT cat, grp FROM events`))
	eng.SetRetrainPolicy(mq.RetrainPolicy{WriteThreshold: retrainCycles * cycleWrites})
	for i := range 60 {
		sql := fmt.Sprintf(`SELECT id FROM events WHERE num >= %d AND num <= %d`, 150*i, 150*i+40)
		if i%3 == 0 {
			sql = fmt.Sprintf(`SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = 'high' AND num >= %d`, 9000+15*i)
		}
		must(eng.Subscribe(sql))
	}
	srv := server.New(eng, server.Config{}).Handler()
	serve := func(path string, body any) []byte { // GET when body is nil
		t.Helper()
		raw, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		method := http.MethodPost
		if body == nil {
			method = http.MethodGet
		}
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	const probe = `SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num` +
		` PREDICTION JOIN nb AS g ON g.cat = events.cat WHERE m.cls = 'high' AND g.grp = 'a'`

	type reading struct {
		bytesPerRow, heapMiB        float64
		subs, statements, envelopes int
	}
	var consumed int64
	read := func() reading {
		var st struct {
			Prepared      struct{ Size int } `json:"prepared"`
			EnvelopeCache struct{ Size int } `json:"envelope_cache"`
		}
		if err := json.Unmarshal(serve("/v1/stats", nil), &st); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		live := nextID - lowID
		return reading{
			bytesPerRow: float64(mq.TableSpace(eng, "events").Bytes) / float64(live),
			heapMiB:     float64(m.HeapAlloc) / (1 << 20),
			subs:        eng.StandingStats().Registered,
			statements:  st.Prepared.Size, envelopes: st.EnvelopeCache.Size,
		}
	}
	var readings []reading
	for cycle := 1; cycle <= 2*n; cycle++ {
		for range inserts {
			insert()
		}
		must(eng.Exec(ctx, fmt.Sprintf("DELETE FROM events WHERE id >= %d AND id < %d", lowID, lowID+deleteRows)))
		lowID += deleteRows
		for range updates {
			lo := lowID + r.Int63n(nextID-lowID-updateRows)
			must(eng.Exec(ctx, fmt.Sprintf("UPDATE events SET flag = %d WHERE id >= %d AND id < %d", 1+r.Intn(1000), lo, lo+updateRows)))
		}
		// Take every notification the cycle raised.
		deadline, cancel := context.WithTimeout(ctx, 10*time.Second)
		for consumed < eng.StandingStats().Matches {
			ns, err := eng.Notifications(deadline, 1<<14)
			if err != nil {
				t.Fatalf("cycle %d: %d of %d notifications taken: %v", cycle, consumed, eng.StandingStats().Matches, err)
			}
			consumed += int64(len(ns))
		}
		cancel()
		serve("/v1/execute", wire.ExecuteRequest{SQL: probe})
		if cycle == n || cycle == 2*n {
			readings = append(readings, read())
		}
	}
	if got, want := eng.StandingStats().Dropped, int64(0); got != want {
		t.Fatalf("the standing set dropped %d notifications", got)
	}
	at, at2 := readings[0], readings[1]
	t.Logf("after %d cycles: %+v; after %d: %+v (%+v)", n, at, 2*n, at2, mq.TableSpace(eng, "events"))
	ratio := func(what string, a, b, bound float64) {
		t.Helper()
		if b > bound*a {
			t.Errorf("%s grew from %.2f after %d cycles to %.2f after %d, over %.2f×", what, a, n, b, 2*n, bound)
		}
	}
	ratio("page bytes per live row", at.bytesPerRow, at2.bytesPerRow, 1.10)
	ratio("the Go heap after GC (MiB)", at.heapMiB, at2.heapMiB, 1.10)
	ratio("standing subscriptions", float64(at.subs), float64(at2.subs), 1)
	ratio("registered statements", float64(at.statements), float64(at2.statements), 1)
	ratio("envelope cache entries", float64(at.envelopes), float64(at2.envelopes), 1)
}

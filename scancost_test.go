package minequery_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	mq "minequery"
)

// TestScanCostFollowsLivePages: the optimizer prices a scan from the
// pages that hold live rows, not from every page address the table ever
// opened. After 60 cycles of the write stream's statement mix — per
// cycle 27 INSERTs of 16 rows, one DELETE of the 432 oldest and two
// UPDATEs of 64, on a table whose live row count stays put — the scan
// cost of one fixed selection stays within 1.25× of its cost on a table
// freshly loaded with the same live rows. Priced from page addresses, it
// grows with every cycle.
func TestScanCostFollowsLivePages(t *testing.T) {
	const (
		rows, cycles        = 4000, 60
		inserts, insertRows = 27, 16
		updates, updateRows = 2, 64
		deleteRows          = inserts * insertRows
		where               = "num < 12"
		bound               = 1.25
	)
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	newEngine := func() *mq.Engine {
		eng := mq.New()
		eng.SetDOP(1)
		if err := eng.CreateTable("events", mq.MustSchema(
			mq.Column{Name: "id", Kind: mq.KindInt}, mq.Column{Name: "cat", Kind: mq.KindString},
			mq.Column{Name: "num", Kind: mq.KindInt}, mq.Column{Name: "flag", Kind: mq.KindInt},
			mq.Column{Name: "cls", Kind: mq.KindString}, mq.Column{Name: "grp", Kind: mq.KindString})); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	exec := func(eng *mq.Engine, sql string) {
		t.Helper()
		if _, err := eng.Exec(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// insertAll loads the rows (SQL tuples) insertRows at a time.
	insertAll := func(eng *mq.Engine, tuples []string) {
		t.Helper()
		for len(tuples) > 0 {
			k := min(insertRows, len(tuples))
			exec(eng, "INSERT INTO events VALUES "+strings.Join(tuples[:k], ", "))
			tuples = tuples[k:]
		}
	}
	nextID, lowID := int64(0), int64(0)
	fresh := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			cat, num := r.Intn(16), r.Intn(10000)
			cls, grp := "low", "a"
			if num >= 8500 {
				cls = "high"
			}
			if cat >= 8 {
				grp = "b"
			}
			out[i] = fmt.Sprintf("(%d, 'c%d', %d, 0, '%s', '%s')", nextID, cat, num, cls, grp)
			nextID++
		}
		return out
	}

	eng := newEngine()
	insertAll(eng, fresh(rows))
	first, err := mq.ScanCost(eng, "events", where)
	if err != nil {
		t.Fatal(err)
	}
	for range cycles {
		insertAll(eng, fresh(inserts*insertRows))
		exec(eng, fmt.Sprintf("DELETE FROM events WHERE id >= %d AND id < %d", lowID, lowID+deleteRows))
		lowID += deleteRows
		for range updates {
			lo := lowID + r.Int63n(nextID-lowID-updateRows)
			exec(eng, fmt.Sprintf("UPDATE events SET flag = %d WHERE id >= %d AND id < %d", 1+r.Intn(1000), lo, lo+updateRows))
		}
	}
	churned, err := mq.ScanCost(eng, "events", where)
	if err != nil {
		t.Fatal(err)
	}

	res, err := eng.Query(ctx, "SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	live := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		live[i] = fmt.Sprintf("(%d, '%s', %d, %d, '%s', '%s')", row[0].AsInt(), row[1].AsString(),
			row[2].AsInt(), row[3].AsInt(), row[4].AsString(), row[5].AsString())
	}
	loaded := newEngine()
	insertAll(loaded, live)
	want, err := mq.ScanCost(loaded, "events", where)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scan cost %.1f when loaded, %.1f after %d cycles, %.1f freshly loaded with the %d live rows; %d page addresses",
		first, churned, cycles, want, len(live), mq.TableSpace(eng, "events").Pages)
	if churned > bound*want {
		t.Fatalf("after %d cycles the scan costs %.1f, over %.2f× the %.1f of a fresh table with the same rows",
			cycles, churned, bound, want)
	}
}

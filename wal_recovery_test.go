package minequery

// CREATE MODEL's log-then-apply ordering under a dead WAL, and the
// fixtures the standing replay test shares. Crash recovery itself — a
// kill at a random append or fsync, a torn tail, the acked state or
// acked + the statement in flight, then a second cycle on the recovered
// engine — is TestModelCheck's.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"minequery/internal/storage"
	"minequery/internal/value"
	"minequery/internal/wal"
)

func newCrashEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindInt},
		Column{Name: "label", Kind: KindString},
	)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// crashState renders an engine's observable write-path state: the
// model catalog (names) and the full multiset of rows in t. Row order
// is normalized away — the invariant is about content, not heap slots.
func crashState(t *testing.T, e *Engine) string {
	t.Helper()
	res, err := e.Query(context.Background(), "SELECT id, a, b, label FROM t")
	if err != nil {
		t.Fatalf("state dump: %v", err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	var models []string
	for _, m := range e.cat.Models() {
		models = append(models, m.Model.Name())
	}
	return "models:" + strings.Join(models, ",") + "\n" + strings.Join(rows, "\n")
}

// TestCreateModelWALFailureNotRegistered pins CREATE MODEL's
// log-then-apply ordering: when the statement's own WAL append fails,
// it must error WITHOUT registering the model. A model served live but
// absent from the durable log would vanish on the next restart.
func TestCreateModelWALFailureNotRegistered(t *testing.T) {
	eng := newCrashEngine(t)
	dev := NewMemWALDevice()
	if _, err := eng.EnableWAL(dev); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var b strings.Builder
	b.WriteString("INSERT INTO t (id, a, b, label) VALUES ")
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, '%s')", i, i%5, i*7, [...]string{"red", "green", "blue"}[i%3])
	}
	if _, err := eng.Exec(ctx, b.String()); err != nil {
		t.Fatal(err)
	}
	epoch := eng.cat.Epoch()

	// Kill the very next append — the CREATE MODEL's own log write.
	eng.SetFaults(NewFaultInjector(1, FaultRule{Site: FaultSiteWALAppend, OnHit: 1, Err: ErrWALCrash}))
	_, err := eng.Exec(ctx, "CREATE MODEL m ON t PREDICT label USING dtree")
	if !errors.Is(err, ErrWALCrash) {
		t.Fatalf("CREATE MODEL with dead WAL: want ErrWALCrash, got %v", err)
	}
	if n := len(eng.cat.Models()); n != 0 {
		t.Fatalf("failed CREATE MODEL registered %d models; the live engine is serving a model absent from the durable log", n)
	}
	if got := eng.cat.Epoch(); got != epoch {
		t.Fatalf("failed CREATE MODEL bumped the catalog epoch %d -> %d", epoch, got)
	}

	// The durable log replays to the same model-free state.
	rec := newCrashEngine(t)
	if _, err := rec.EnableWAL(NewMemWALDeviceFrom(dev.CrashImage(0))); err != nil {
		t.Fatal(err)
	}
	if got, want := crashState(t, rec), crashState(t, eng); got != want {
		t.Fatalf("replayed state diverges after failed CREATE MODEL:\nreplayed:\n%s\nlive:\n%s", got, want)
	}
}

// TestRecoveredHeapMatchesLive: compaction is a function of the mutation
// sequence, and replay applies the same sequence, so a recovered table
// holds the same pages, the same bytes and the same compactions as the
// live one it replays.
func TestRecoveredHeapMatchesLive(t *testing.T) {
	eng := newCrashEngine(t)
	dev := NewMemWALDevice()
	if _, err := eng.EnableWAL(dev); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exec := func(sql string) {
		t.Helper()
		if _, err := eng.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for cycle := range 40 {
		var b strings.Builder
		b.WriteString("INSERT INTO t (id, a, b, label) VALUES ")
		for i := range 100 {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, '%s')", next, next%7, next*3, [...]string{"red", "green", "blue"}[next%3])
			next++
		}
		exec(b.String())
		exec(fmt.Sprintf("DELETE FROM t WHERE id < %d", 60*cycle))
		exec(fmt.Sprintf("UPDATE t SET b = %d WHERE a = %d", cycle, cycle%7))
	}
	live := TableSpace(eng, "t")
	if live.Compactions == 0 {
		t.Fatal("the write mix compacted nothing")
	}
	rec := newCrashEngine(t)
	if _, err := rec.EnableWAL(NewMemWALDeviceFrom(dev.CrashImage(0))); err != nil {
		t.Fatal(err)
	}
	if got := TableSpace(rec, "t"); got != live {
		t.Fatalf("the recovered table holds %+v, the live one %+v", got, live)
	}
	if got, want := crashState(t, rec), crashState(t, eng); got != want {
		t.Fatalf("replayed state diverges:\nreplayed:\n%s\nlive:\n%s", got, want)
	}
}

// legacyRecord is rec as logs held it before an INT was written as a
// zigzag varint: every row it carries re-encoded with each INT as tag 1
// and 8 bytes little-endian.
func legacyRecord(t *testing.T, rec wal.Record) wal.Record {
	t.Helper()
	if rec.Kind != wal.RecordDML {
		return rec
	}
	muts := make([]wal.Mutation, len(rec.Muts))
	for i, m := range rec.Muts {
		if m.Rec != nil {
			row, err := value.DecodeTuple(m.Rec)
			if err != nil {
				t.Fatal(err)
			}
			m.Rec = binary.AppendUvarint(nil, uint64(len(row)))
			for _, v := range row {
				if v.Kind() == value.KindInt {
					m.Rec = binary.LittleEndian.AppendUint64(append(m.Rec, byte(value.KindInt)), uint64(v.AsInt()))
				} else {
					m.Rec = v.Encode(m.Rec)
				}
			}
		}
		muts[i] = m
	}
	rec.Muts = muts
	return rec
}

// logOf appends recs, in order, to a fresh log and returns its bytes.
func logOf(t *testing.T, recs []wal.Record) []byte {
	t.Helper()
	dev := wal.NewMemDevice()
	l, _, err := wal.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	b, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverLegacyIntLog: a log written before an INT was stored as a
// zigzag varint replays into the same table as the compact log of the
// same statements; and an engine recovered from it goes on logging
// compact rows after the legacy prefix, into a log that replays to the
// table that engine holds. legacyRecord writes exactly the frames such
// logs hold: on the record TestFrameBytesPinned pins, it reproduces that
// test's legacy bytes.
func TestRecoverLegacyIntLog(t *testing.T) {
	pinned := wal.Record{Kind: wal.RecordDML, Table: "events", Muts: []wal.Mutation{
		{Op: wal.OpInsert, Rec: value.EncodeTuple(nil, value.Tuple{value.Int(7), value.Str("c3"), value.Float(2.5), value.Null(), value.Bool(true)})},
		{Op: wal.OpDelete, RID: storage.RID{Page: 300, Slot: 17}},
		{Op: wal.OpUpdate, RID: storage.RID{Page: 2, Slot: 65535},
			Rec: value.EncodeTuple(nil, value.Tuple{value.Int(-1), value.Str(""), value.Float(0), value.Int(1 << 40), value.Bool(false)})},
	}}
	const pinnedLegacy = "540000004f6cc0a301066576656e747303011a0501070000000000000003026333020000000000000440000401022c01000011000302000000ffff200501ffffffffffffffff03000200000000000000000100000000000100000400"
	if got := hex.EncodeToString(logOf(t, []wal.Record{legacyRecord(t, pinned)})); got != pinnedLegacy {
		t.Fatalf("legacyRecord of the pinned record framed as\n%s\nwant\n%s", got, pinnedLegacy)
	}

	ctx := context.Background()
	exec := func(e *Engine, sql string) {
		t.Helper()
		if _, err := e.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(lo, hi int) string {
		var b strings.Builder
		b.WriteString("INSERT INTO t (id, a, b, label) VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, '%s')", i, i%7-3, int64(i)*int64(i)*1000003-1<<40, [...]string{"red", "green", "blue"}[i%3])
		}
		return b.String()
	}
	// Every RID the head logs is on page 0, which holds the same rows in
	// the same slots in either form: rewritten into the legacy form, its
	// log is the one the fixed-width encoder wrote. Its last INSERT fills
	// pages past 0, in both forms.
	head := []string{
		insert(0, 100),
		"CREATE MODEL m ON t PREDICT label USING dtree",
		"DELETE FROM t WHERE id < 10",
		"UPDATE t SET b = -123456789 WHERE a = 2",
		insert(100, 1000),
		"INSERT INTO t (id, a, b, label) VALUES (1000, -9223372036854775807, 9223372036854775807, 'red'), (1001, 64, -65, 'green'), (1002, 63, -64, 'blue')",
	}
	// The tail reads and writes across pages, so its RIDs depend on the
	// form of the rows it finds.
	tail := []string{
		"DELETE FROM t WHERE id < 150",
		"UPDATE t SET a = 5 WHERE b < 0",
		insert(2000, 2100),
	}

	eng := newCrashEngine(t)
	dev := NewMemWALDevice()
	if _, err := eng.EnableWAL(dev); err != nil {
		t.Fatal(err)
	}
	for _, sql := range head {
		exec(eng, sql)
	}
	compact, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	wantHead, compactSpace := crashState(t, eng), TableSpace(eng, "t")
	for _, sql := range tail {
		exec(eng, sql)
	}
	want := crashState(t, eng)

	_, rep, err := wal.Open(wal.NewMemDeviceFrom(compact))
	if err != nil {
		t.Fatal(err)
	}
	legacy := make([]wal.Record, len(rep.Records))
	for i, r := range rep.Records {
		legacy[i] = legacyRecord(t, r)
	}
	legacyDev := NewMemWALDeviceFrom(logOf(t, legacy))
	old := newCrashEngine(t)
	if n, err := old.EnableWAL(legacyDev); err != nil || n != len(head) {
		t.Fatalf("replayed %d of %d legacy records: %v", n, len(head), err)
	}
	if got := crashState(t, old); got != wantHead {
		t.Fatalf("the legacy log replays to\n%s\nthe compact one to\n%s", got, wantHead)
	}
	if got := TableSpace(old, "t"); got.Bytes <= compactSpace.Bytes {
		t.Fatalf("the legacy log's table holds %+v, the compact one's %+v: its rows were not stored as logged", got, compactSpace)
	}

	for _, sql := range tail {
		exec(old, sql)
	}
	if got := crashState(t, old); got != want {
		t.Fatalf("after the tail, the engine recovered from the legacy log holds\n%s\nwant\n%s", got, want)
	}
	mixed, err := legacyDev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	rec := newCrashEngine(t)
	if n, err := rec.EnableWAL(NewMemWALDeviceFrom(mixed)); err != nil || n != len(head)+len(tail) {
		t.Fatalf("replayed %d of %d records of the legacy prefix and compact tail: %v", n, len(head)+len(tail), err)
	}
	if got := crashState(t, rec); got != want {
		t.Fatalf("the legacy prefix and compact tail replay to\n%s\nwant\n%s", got, want)
	}
	if got, wantSpace := TableSpace(rec, "t"), TableSpace(old, "t"); got != wantSpace {
		t.Fatalf("the mixed log replays to a table of %+v, the engine that wrote it holds %+v", got, wantSpace)
	}
}

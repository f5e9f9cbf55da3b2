package minequery

// CREATE MODEL's log-then-apply ordering under a dead WAL, and the
// fixtures the standing replay test shares. Crash recovery itself — a
// kill at a random append or fsync, a torn tail, the acked state or
// acked + the statement in flight, then a second cycle on the recovered
// engine — is TestModelCheck's.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
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

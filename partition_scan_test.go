package minequery

// Partitioned scans that overlap writes: a scan cuts its page ranges
// (and, at DOP > 1, its morsels) once, when it is built, so a page an
// INSERT opens in one partition must not shift the pages another
// partition's ranges address. Every row committed before the query
// began is returned exactly once.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// partScanPages is how many pages partScanFixture fills in each
// partition.
const partScanPages = 12

// partScanPad pads every row of t, so that a partition's rows, and an
// INSERT's, fill whole pages.
var partScanPad = strings.Repeat("p", 200)

// partScanFixture returns an engine holding t(id, num, pad), partitioned
// on num at 100, and n, the rows in each partition: ids [0, n) have num
// 1, ids [n, 2n) num 101. The first partition is filled a row at a time
// until it spans partScanPages pages, so the fixture spans them however
// wide a stored row is; the padding keeps n in the hundreds.
func partScanFixture(t *testing.T) (*Engine, int64) {
	t.Helper()
	eng := New()
	schema := MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "num", Kind: KindInt},
		Column{Name: "pad", Kind: KindString},
	)
	if err := eng.CreatePartitionedTable("t", schema, "num", []Value{Int(100)}); err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for ; TableSpace(eng, "t").Pages < partScanPages; n++ {
		if err := eng.InsertBatch("t", []Tuple{{Int(n), Int(1), Str(partScanPad)}}); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]Tuple, 0, n)
	for id := n; id < 2*n; id++ {
		rows = append(rows, Tuple{Int(id), Int(101), Str(partScanPad)})
	}
	if err := eng.InsertBatch("t", rows); err != nil {
		t.Fatal(err)
	}
	return eng, n
}

// insertSQL is an INSERT of n rows into t from id first on, all with num.
func insertSQL(first int64, n int, num int64) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d, '%s')", first+int64(i), num, partScanPad)
	}
	return "INSERT INTO t VALUES " + strings.Join(vals, ", ")
}

// idSpan is the ids [lo, hi).
type idSpan struct{ lo, hi int64 }

func (s idSpan) has(id int64) bool { return id >= s.lo && id < s.hi }

// checkEachOnce fails t unless res holds every id of want exactly once,
// and no id twice or outside want and maybe.
func checkEachOnce(t *testing.T, what string, res *Result, want []idSpan, maybe idSpan) {
	t.Helper()
	seen := map[int64]int{}
	for _, r := range res.Rows {
		seen[r[0].AsInt()]++
	}
	twice, stray, missing := 0, 0, 0
	for id, n := range seen {
		if n > 1 {
			twice++
		}
		if !maybe.has(id) && !slices.ContainsFunc(want, func(s idSpan) bool { return s.has(id) }) {
			stray++
		}
	}
	for _, s := range want {
		for id := s.lo; id < s.hi; id++ {
			if seen[id] == 0 {
				missing++
			}
		}
	}
	if twice > 0 || stray > 0 || missing > 0 {
		t.Errorf("%s: %d rows: %d ids twice, %d ids never committed, %d committed ids missing", what, len(res.Rows), twice, stray, missing)
	}
}

// pageHook is a fault clock whose injected latency runs a callback on
// the reading goroutine: a Delay rule at a page-read site calls it once
// per page read, before any record of the page is delivered.
type pageHook struct {
	Clock
	sleep func()
}

func (c pageHook) Sleep(time.Duration) { c.sleep() }

// TestPartitionScanSeesEachRowOnce commits an INSERT that opens pages in
// the first partition after a full scan's 14th page read — two pages
// into the second partition — and checks that the scan returns each of
// the rows that were there before it began exactly once, serially
// and on morsels.
func TestPartitionScanSeesEachRowOnce(t *testing.T) {
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			eng, n := partScanFixture(t)
			full, err := eng.Query(context.Background(), "SELECT id FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if full.Stats.SeqPageReads != 2*partScanPages {
				t.Fatalf("the fixture spans %d pages, the test needs %d a partition", full.Stats.SeqPageReads, partScanPages)
			}
			var reads atomic.Int64
			var insertErr error
			eng.SetFaults(NewFaultInjector(1, FaultRule{Site: FaultSitePageReadSeq, EveryN: 1, Delay: time.Nanosecond}).
				WithClock(pageHook{NewFakeClock(), func() {
					if reads.Add(1) == 14 {
						_, insertErr = eng.Exec(context.Background(), insertSQL(10000, 60, 1))
					}
				}}))
			res, err := eng.Query(context.Background(), "SELECT id FROM t", WithDOP(dop))
			eng.SetFaults(nil)
			if err != nil {
				t.Fatal(err)
			}
			if insertErr != nil {
				t.Fatal(insertErr)
			}
			if reads.Load() < 14 {
				t.Fatalf("the scan read %d pages; the INSERT never ran", reads.Load())
			}
			checkEachOnce(t, "SELECT id FROM t", res, []idSpan{{0, 2 * n}}, idSpan{10000, 10060})
		})
	}
}

// TestPartitionScanConcurrentWriters runs full scans at DOP 1 and 4
// while another goroutine commits INSERTs into the first and the last
// partition: each answer holds every row committed before its query
// began exactly once, and no row twice.
func TestPartitionScanConcurrentWriters(t *testing.T) {
	const rounds, perInsert, inserts = 10, 40, 100
	eng, n := partScanFixture(t)
	// committed is how many INSERTs have returned; INSERT k writes ids
	// [base(k), base(k)+perInsert), to the first partition when k is
	// even and to the last when it is odd.
	var committed atomic.Int64
	base := func(k int64) int64 { return 100000 + k*perInsert }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := int64(0); k < inserts; k++ {
			num := int64(1)
			if k%2 == 1 {
				num = 101
			}
			if _, err := eng.Exec(context.Background(), insertSQL(base(k), perInsert, num)); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
		}
	}()
	defer func() { <-done }()
	// Read for at least rounds rounds, and for as long as the writer runs.
	for round, writing := 0, true; (round < rounds || writing) && !t.Failed(); round++ {
		select {
		case <-done:
			writing = false
		default:
		}
		for _, dop := range []int{1, 4} {
			before := committed.Load()
			res, err := eng.Query(context.Background(), "SELECT id FROM t", WithDOP(dop))
			if err != nil {
				t.Fatal(err)
			}
			// An INSERT in flight may show, or not.
			checkEachOnce(t, fmt.Sprintf("round %d, dop %d", round, dop), res,
				[]idSpan{{0, 2 * n}, {base(0), base(before)}}, idSpan{base(before), base(committed.Load() + 1)})
		}
	}
}

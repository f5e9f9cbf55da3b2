package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"minequery/internal/storage"
)

func key(s string) []byte { return []byte(s) }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

func rid(i int) storage.RID {
	return storage.RID{Page: uint32(i / 100), Slot: uint16(i % 100)}
}

func collect(t *Tree, lo, hi []byte, loInc, hiInc bool) []Entry {
	var out []Entry
	t.AscendRange(lo, hi, loInc, hiInc, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestInsertAndFullScan(t *testing.T) {
	tr := New(8)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Insert(key(fmt.Sprintf("k%06d", i)), rid(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	got := collect(tr, nil, nil, true, true)
	if len(got) != n {
		t.Fatalf("full scan saw %d entries, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if compareEntries(got[i-1], got[i]) >= 0 {
			t.Fatalf("scan out of order at %d", i)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("expected a multi-level tree for %d entries, height = %d", n, tr.Height())
	}
}

func TestDuplicateKeyVisibility(t *testing.T) {
	// Many entries under few distinct keys force leaf splits inside runs
	// of equal keys; every RID must remain reachable by an equality range.
	tr := New(4) // tiny fanout maximizes splits
	const perKey, keys = 500, 5
	for k := 0; k < keys; k++ {
		for i := 0; i < perKey; i++ {
			tr.Insert(key(fmt.Sprintf("dup%d", k)), rid(k*perKey+i))
		}
	}
	for k := 0; k < keys; k++ {
		var got []Entry
		dup := key(fmt.Sprintf("dup%d", k))
		tr.AscendRange(dup, dup, true, true, func(e Entry) bool {
			got = append(got, e)
			return true
		})
		if len(got) != perKey {
			t.Fatalf("key dup%d: the equality range saw %d entries, want %d", k, len(got), perKey)
		}
	}
}

func TestExactDuplicatePairIgnored(t *testing.T) {
	tr := New(8)
	tr.Insert(key("a"), rid(1))
	tr.Insert(key("a"), rid(1))
	if tr.Len() != 1 {
		t.Fatalf("exact duplicate should be stored once, Len = %d", tr.Len())
	}
}

func TestRangeBounds(t *testing.T) {
	tr := New(8)
	for i := 0; i < 100; i++ {
		tr.Insert(key(fmt.Sprintf("%03d", i)), rid(i))
	}
	cases := []struct {
		lo, hi       string
		loInc, hiInc bool
		want         int
	}{
		{"010", "020", true, true, 11},
		{"010", "020", false, true, 10},
		{"010", "020", true, false, 10},
		{"010", "020", false, false, 9},
		{"", "", true, true, 100}, // nil handled below
		{"099", "200", true, true, 1},
		{"200", "300", true, true, 0},
	}
	for _, c := range cases {
		var lo, hi []byte
		if c.lo != "" {
			lo = key(c.lo)
		}
		if c.hi != "" {
			hi = key(c.hi)
		}
		got := len(collect(tr, lo, hi, c.loInc, c.hiInc))
		if got != c.want {
			t.Errorf("range [%s,%s] inc=%v,%v: got %d, want %d", c.lo, c.hi, c.loInc, c.hiInc, got, c.want)
		}
	}
	if got := len(collect(tr, nil, key("009"), true, true)); got != 10 {
		t.Errorf("(-inf, 009]: got %d, want 10", got)
	}
	if got := len(collect(tr, key("090"), nil, true, true)); got != 10 {
		t.Errorf("[090, +inf): got %d, want 10", got)
	}
}

func TestEarlyStop(t *testing.T) {
	tr := New(8)
	for i := 0; i < 100; i++ {
		tr.Insert(key(fmt.Sprintf("%03d", i)), rid(i))
	}
	n := 0
	tr.AscendRange(nil, nil, true, true, func(Entry) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d, want 7", n)
	}
}

func TestDelete(t *testing.T) {
	tr := New(6)
	for i := 0; i < 1000; i++ {
		tr.Insert(key(fmt.Sprintf("%04d", i)), rid(i))
	}
	for i := 0; i < 1000; i += 2 {
		if !tr.Delete(key(fmt.Sprintf("%04d", i)), rid(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Delete(key("0000"), rid(0)) {
		t.Error("double delete should report false")
	}
	if tr.Delete(key("zzzz"), rid(0)) {
		t.Error("delete of absent key should report false")
	}
	if tr.Len() != 500 {
		t.Fatalf("Len after deletes = %d, want 500", tr.Len())
	}
	got := collect(tr, nil, nil, true, true)
	if len(got) != 500 {
		t.Fatalf("scan after deletes saw %d", len(got))
	}
	for _, e := range got {
		var i int
		fmt.Sscanf(string(e.Key), "%d", &i)
		if i%2 == 0 {
			t.Fatalf("deleted key %q still visible", e.Key)
		}
	}
}

// TestMin: an ascending scan over the whole tree yields the smallest
// key first, past emptied leaves, and nothing from an empty tree.
func TestMin(t *testing.T) {
	first := func(tr *Tree) (e Entry, ok bool) {
		tr.AscendRange(nil, nil, true, true, func(x Entry) bool {
			e, ok = x, true
			return false
		})
		return e, ok
	}
	tr := New(8)
	if _, ok := first(tr); ok {
		t.Error("a scan of an empty tree yielded an entry")
	}
	tr.Insert(key("m"), rid(1))
	tr.Insert(key("a"), rid(2))
	tr.Insert(key("z"), rid(3))
	e, ok := first(tr)
	if !ok || string(e.Key) != "a" {
		t.Errorf("first = %q, %v", e.Key, ok)
	}
	tr2 := New(4)
	for i := 0; i < 20; i++ {
		tr2.Insert(key(fmt.Sprintf("%02d", i)), rid(i))
	}
	for i := 0; i < 10; i++ {
		tr2.Delete(key(fmt.Sprintf("%02d", i)), rid(i))
	}
	e2, ok := first(tr2)
	if !ok || string(e2.Key) != "10" {
		t.Errorf("first after deletes = %q, %v; want 10", e2.Key, ok)
	}
}

// TestRandomizedAgainstModel drives the tree and a sorted-slice model with
// the same random operations and compares range scans.
func TestRandomizedAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr := New(5)
	var model []Entry
	modelInsert := func(e Entry) {
		i := sort.Search(len(model), func(i int) bool { return compareEntries(model[i], e) >= 0 })
		if i < len(model) && compareEntries(model[i], e) == 0 {
			return
		}
		model = append(model, Entry{})
		copy(model[i+1:], model[i:])
		model[i] = e
	}
	modelDelete := func(e Entry) bool {
		i := sort.Search(len(model), func(i int) bool { return compareEntries(model[i], e) >= 0 })
		if i < len(model) && compareEntries(model[i], e) == 0 {
			model = append(model[:i], model[i+1:]...)
			return true
		}
		return false
	}
	randKey := func() []byte { return key(fmt.Sprintf("%03d", r.Intn(50))) } // few keys -> many dups
	for op := 0; op < 20000; op++ {
		switch r.Intn(10) {
		case 0, 1: // delete
			e := Entry{Key: randKey(), RID: rid(r.Intn(200))}
			got := tr.Delete(e.Key, e.RID)
			want := modelDelete(e)
			if got != want {
				t.Fatalf("op %d: Delete(%q,%v) = %v, model %v", op, e.Key, e.RID, got, want)
			}
		case 2: // range check
			lo, hi := randKey(), randKey()
			if bytes.Compare(lo, hi) > 0 {
				lo, hi = hi, lo
			}
			got := collect(tr, lo, hi, true, true)
			var want []Entry
			for _, e := range model {
				if bytes.Compare(e.Key, lo) >= 0 && bytes.Compare(e.Key, hi) <= 0 {
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: range [%q,%q] got %d entries, want %d", op, lo, hi, len(got), len(want))
			}
			for i := range got {
				if compareEntries(got[i], want[i]) != 0 {
					t.Fatalf("op %d: range mismatch at %d", op, i)
				}
			}
		default: // insert
			e := Entry{Key: randKey(), RID: rid(r.Intn(200))}
			tr.Insert(e.Key, e.RID)
			modelInsert(e)
		}
		if tr.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", op, tr.Len(), len(model))
		}
	}
}

func TestQuickSortedIteration(t *testing.T) {
	f := func(keys []uint16) bool {
		tr := New(7)
		for i, k := range keys {
			tr.Insert([]byte(fmt.Sprintf("%05d", k)), rid(i))
		}
		prev := Entry{}
		first := true
		ok := true
		tr.AscendRange(nil, nil, true, true, func(e Entry) bool {
			if !first && compareEntries(prev, e) >= 0 {
				ok = false
				return false
			}
			prev, first = e, false
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLowDegreeClamped(t *testing.T) {
	tr := New(1)
	for i := 0; i < 100; i++ {
		tr.Insert(key(fmt.Sprintf("%03d", i)), rid(i))
	}
	if got := len(collect(tr, nil, nil, true, true)); got != 100 {
		t.Errorf("clamped-degree tree lost entries: %d", got)
	}
}

func TestAscendRangeErrStopsAndPropagates(t *testing.T) {
	tr := New(8)
	for i := 0; i < 100; i++ {
		tr.Insert(key(fmt.Sprintf("k%03d", i)), rid(i))
	}
	boom := fmt.Errorf("boom")
	visited := 0
	err := tr.AscendRangeErr(nil, nil, true, true, func(Entry) error {
		visited++
		if visited == 7 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if visited != 7 {
		t.Fatalf("visited %d entries after error, want 7", visited)
	}
	visited = 0
	if err := tr.AscendRangeErr(key("k010"), key("k019"), true, true, func(Entry) error {
		visited++
		return nil
	}); err != nil {
		t.Fatalf("clean range returned %v", err)
	}
	if visited != 10 {
		t.Fatalf("range visited %d, want 10", visited)
	}
}

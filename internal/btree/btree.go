// Package btree implements the in-memory B+-tree used for minequery's
// clustered and secondary indexes. Keys are order-preserving byte strings
// (see value.SortKey); entries carry the heap RID of the indexed row.
// Duplicate keys are supported — entries are totally ordered by
// (key, RID), and internal separators carry the full (key, RID) pair so
// equal keys that span a leaf split stay reachable — so a secondary index
// over a low-cardinality column (the common case for the paper's
// class-label envelope predicates) works naturally.
package btree

import (
	"bytes"
	"sync"

	"minequery/internal/storage"
)

// Entry is one index entry.
type Entry struct {
	Key []byte
	RID storage.RID
}

func compareEntries(a, b Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.RID.Less(b.RID):
		return -1
	case b.RID.Less(a.RID):
		return 1
	}
	return 0
}

type node struct {
	leaf     bool
	entries  []Entry // leaf payload
	seps     []Entry // internal: seps[i] is the smallest entry under children[i+1]
	children []*node
	next     *node // leaf chain for range scans
}

// Tree is a B+-tree. The zero value is not usable; call New.
//
// All methods are safe for concurrent use: mutations (Insert, Delete)
// take the write lock, traversals hold the read lock for their whole
// visit — so a range scan sees one consistent tree, and index
// maintenance from the DML path can interleave with concurrent seeks.
type Tree struct {
	mu     sync.RWMutex
	root   *node
	degree int // max children per internal node; max entries per leaf = degree-1
	size   int
}

// New returns an empty tree with the given degree (fanout). Degrees below
// 4 are raised to 4.
func New(degree int) *Tree {
	if degree < 4 {
		degree = 4
	}
	return &Tree{root: &node{leaf: true}, degree: degree}
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

func (t *Tree) maxLeaf() int { return t.degree - 1 }

// Insert adds an entry. Duplicate (key, RID) pairs are stored once.
func (t *Tree) Insert(key []byte, rid storage.RID) {
	e := Entry{Key: append([]byte(nil), key...), RID: rid}
	t.mu.Lock()
	defer t.mu.Unlock()
	newChild, sep := t.insert(t.root, e)
	if newChild != nil {
		t.root = &node{
			seps:     []Entry{sep},
			children: []*node{t.root, newChild},
		}
	}
}

// insert places e under n. If n splits, it returns the new right sibling
// and the separator entry (smallest entry of the new sibling's subtree).
func (t *Tree) insert(n *node, e Entry) (*node, Entry) {
	if n.leaf {
		i := searchEntries(n.entries, e)
		if i < len(n.entries) && compareEntries(n.entries[i], e) == 0 {
			return nil, Entry{} // exact duplicate
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		t.size++
		if len(n.entries) <= t.maxLeaf() {
			return nil, Entry{}
		}
		mid := len(n.entries) / 2
		right := &node{leaf: true, next: n.next}
		right.entries = append(right.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid:mid]
		n.next = right
		return right, right.entries[0]
	}
	ci := childIndex(n.seps, e)
	newChild, sep := t.insert(n.children[ci], e)
	if newChild == nil {
		return nil, Entry{}
	}
	n.seps = append(n.seps, Entry{})
	copy(n.seps[ci+1:], n.seps[ci:])
	n.seps[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.children) <= t.degree {
		return nil, Entry{}
	}
	midSep := len(n.seps) / 2
	upSep := n.seps[midSep]
	right := &node{}
	right.seps = append(right.seps, n.seps[midSep+1:]...)
	right.children = append(right.children, n.children[midSep+1:]...)
	n.seps = n.seps[:midSep:midSep]
	n.children = n.children[: midSep+1 : midSep+1]
	return right, upSep
}

// searchEntries returns the first index i such that entries[i] >= e.
func searchEntries(entries []Entry, e Entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(entries[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for e: children[i] covers
// entries in [seps[i-1], seps[i]). Descend right when e >= seps[i].
func childIndex(seps []Entry, e Entry) int {
	lo, hi := 0, len(seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(seps[mid], e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes the entry (key, rid). It reports whether the entry was
// present. Deletion is lazy: leaves may become underfull (and even
// empty); the structure is not rebalanced. Range scans skip empty leaves.
func (t *Tree) Delete(key []byte, rid storage.RID) bool {
	e := Entry{Key: key, RID: rid}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.seps, e)]
	}
	i := searchEntries(n.entries, e)
	if i >= len(n.entries) || compareEntries(n.entries[i], e) != 0 {
		return false
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.size--
	return true
}

// minRID is the smallest possible RID, used to bias bound probes to the
// leftmost matching leaf.
var minRID = storage.RID{}

// AscendRange visits entries with lo <= key <= hi in ascending (key, RID)
// order. A nil lo means "from the smallest key"; a nil hi means "to the
// largest". loInc/hiInc control bound inclusivity (ignored for nil
// bounds). The callback returning false stops the scan. It returns the
// number of entries visited.
func (t *Tree) AscendRange(lo, hi []byte, loInc, hiInc bool, fn func(Entry) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	if lo == nil {
		for !n.leaf {
			n = n.children[0]
		}
	} else {
		probe := Entry{Key: lo, RID: minRID}
		for !n.leaf {
			n = n.children[childIndex(n.seps, probe)]
		}
	}
	visited := 0
	for ; n != nil; n = n.next {
		for _, e := range n.entries {
			if lo != nil {
				c := bytes.Compare(e.Key, lo)
				if c < 0 || (c == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				c := bytes.Compare(e.Key, hi)
				if c > 0 || (c == 0 && !hiInc) {
					return visited
				}
			}
			visited++
			if !fn(e) {
				return visited
			}
		}
	}
	return visited
}

// AscendRangeErr is AscendRange with an error-propagating callback: the
// first non-nil error stops the scan and is returned. Seek paths use it
// to surface context cancellation and injected faults from inside the
// per-entry callback without sentinel booleans.
func (t *Tree) AscendRangeErr(lo, hi []byte, loInc, hiInc bool, fn func(Entry) error) error {
	var err error
	t.AscendRange(lo, hi, loInc, hiInc, func(e Entry) bool {
		err = fn(e)
		return err == nil
	})
	return err
}

// Package exec interprets physical plans as trees of batch-at-a-time
// operators (BatchIterator, batch.go) over the catalog's tables. Index
// accesses fetch rows by RID (counted as random page reads by the
// storage layer), sequential scans read pages in order, and
// PredictionJoin applies a mining model to every row of a batch — the
// three behaviours whose relative costs the paper's experiments measure.
// This file holds the index access paths and the helpers the operators
// share.
package exec

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"minequery/internal/btree"
	"minequery/internal/catalog"
	"minequery/internal/fault"
	"minequery/internal/plan"
	"minequery/internal/recycle"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// pageReader is the one heap page reader: read feeds every live row of
// a range of t's heap pages to fn, as stored and decoded, in heap order.
// Each record is decoded into the tuple dst returns for it
// (value.DecodeTupleInto), so where rows live, and for how long, is the
// caller's choice: the same scratch tuple every time, or the next slot
// of an arena. need says which columns to decode (columnMask; nil for
// all), and the tuples hold those alone. fit, when non-nil, may refuse a
// page before it is read (storage.Heap.ScanPagesInto), which ends the
// read like fn returning false: early, with a nil error. The reader
// stands where the read ended, a page and a slot — the page fit refused,
// or the slot after the last row fn took — and the next read goes on
// from there.
//
// A reader is built once per scan and its callbacks with it, so a read
// allocates nothing, however many pages it covers. It reads one page per
// storage call and retries each under the options' policy, one page per
// attempt: storage errors fire at page granularity before any record of
// the failing page is delivered, so a retried page never double-delivers
// rows to fn, and fit, shown the page again, must answer as it did. ctx
// is checked before every page and every BatchSize rows delivered, so a
// read stopped mid-page — a cancelled query, a morsel pool's stop —
// decodes fewer than BatchSize rows more, however many the page holds.
type pageReader struct {
	ctx     context.Context
	table   *catalog.Table
	opts    Options
	onRetry func(error)

	// attempt reads page from slot on through the storage callbacks
	// built with the reader, which move slot past every row delivered
	// and note how the read of the page ended: halted, or err — a
	// corrupt record, or the context done. slot is an int32 beside
	// halted, in the padding a bool leaves: a reader is allocated with
	// every scan leaf, and a wider one takes the next size class.
	attempt   func() error
	page      int
	halted    bool
	slot      int32
	err       error
	delivered int
}

func newPageReader(ctx context.Context, t *catalog.Table, opts Options, need []bool, fit func(live int) bool,
	dst func() value.Tuple, fn func(rid storage.RID, rec []byte, tup value.Tuple) bool) *pageReader {
	r := &pageReader{ctx: ctx, table: t, opts: opts.fill(), onRetry: opts.onRetry()}
	var pageFit func(live int) bool
	if fit != nil {
		pageFit = func(live int) bool {
			r.halted = !fit(live)
			return !r.halted
		}
	}
	deliver := func(rid storage.RID, rec []byte) bool {
		tup, err := value.DecodeTupleInto(dst(), rec, need)
		if err != nil {
			r.err = fmt.Errorf("exec: scan %s: corrupt row at %s: %w", t.Name, rid, err)
			return false
		}
		r.slot = int32(rid.Slot) + 1
		r.halted = !fn(rid, rec, tup)
		if r.delivered++; r.delivered%r.opts.BatchSize == 0 && !r.halted {
			r.err = ctxErr(r.ctx)
			return r.err == nil
		}
		return !r.halted
	}
	io := ioOf(opts.Collector)
	r.attempt = func() error { return t.Heap.ScanPagesInto(io, r.page, r.page+1, int(r.slot), pageFit, deliver) }
	return r
}

// seek points the reader at the first slot of page.
func (r *pageReader) seek(page int) { r.page, r.slot = page, 0 }

// read reads on from where the reader stands, up to page hi, and stops
// where fit refuses a page, where fn stops, or at hi.
func (r *pageReader) read(hi int) error {
	r.halted = false
	for ; r.page < hi; r.page, r.slot = r.page+1, 0 {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
		if err := fault.Retry(r.ctx, r.opts.Clock, r.opts.Retry, r.attempt, r.onRetry); err != nil {
			return fmt.Errorf("exec: scan %s: %w", r.table.Name, err)
		}
		if r.err != nil {
			return r.err
		}
		if r.halted {
			return nil
		}
	}
	return nil
}

// arenaChunkLen is the values in one chunk of a pooled arena: a chunk
// holds arenaChunkLen/width rows, so a batch wastes less than one chunk
// and a tiny table takes one. Small chunks keep what the pool holds close
// to what an execution uses: the pool keeps it alive across one
// collection.
const arenaChunkLen = 128

// arenaChunks recycles the chunks of the serial leaves' arenas, as
// vec.Scratch recycles selection buffers: a leaf takes chunks as its
// batches need them and hands them all back at Close, so a prepared
// statement's second execution decodes into the first one's memory —
// on whichever P it runs, since a recycle.Pool parks one chunk where
// every P finds it.
var arenaChunks recycle.Pool[[arenaChunkLen]value.Value]

// rowArena carves tuple slots of a fixed width out of chunks. next hands
// out the following slot — empty, non-nil, of capacity width — taking a
// chunk only when every one it has is full; reset makes all of them
// available again, and whatever was decoded into them garbage. A leaf
// makes width its scanCols' slot, so that a row is widened where it
// lies.
//
// A pooled arena (pooledArena) takes its chunks from arenaChunks and must
// be released; a private one (privateArena) makes its own.
type rowArena struct {
	width    int
	rows     int  // slots per chunk
	pooled   bool // chunks come from arenaChunks and go back at release
	chunks   []value.Tuple
	ci, used int // current chunk and the slots taken from it
}

// pooledArena is an arena of rows of width values over arenaChunks,
// with room in its chunk list for a batch of batchRows. Rows wider than a
// chunk get chunks of their own, from the heap.
func pooledArena(width, batchRows int) rowArena {
	if width > arenaChunkLen {
		return privateArena(width, batchRows)
	}
	rows := arenaChunkLen / max(width, 1)
	return rowArena{width: width, rows: rows, pooled: true, chunks: make([]value.Tuple, 0, (batchRows+rows-1)/rows)}
}

// privateArena is an arena whose chunks, of rows slots each, it makes
// itself.
func privateArena(width, rows int) rowArena { return rowArena{width: width, rows: rows} }

func (a *rowArena) next() value.Tuple {
	if a.ci == len(a.chunks) {
		if a.pooled {
			a.chunks = append(a.chunks, arenaChunks.Get()[:])
		} else {
			a.chunks = append(a.chunks, make(value.Tuple, a.rows*a.width))
		}
	}
	lo := a.used * a.width
	slot := a.chunks[a.ci][lo : lo : lo+a.width]
	if a.used++; a.used == a.rows {
		a.ci, a.used = a.ci+1, 0
	}
	return slot
}

func (a *rowArena) reset() { a.ci, a.used = 0, 0 }

// release gives a pooled arena's chunks back, cleared so that they pin
// no string, and forgets them, so that a second release gives nothing.
func (a *rowArena) release() {
	if a.pooled {
		for _, c := range a.chunks {
			clear(c)
			arenaChunks.Put((*[arenaChunkLen]value.Value)(c))
		}
	}
	a.chunks, a.ci, a.used = nil, 0, 0
}

// batchPool recycles the batch slices of the serial leaves, as
// arenaChunks their rows. It holds pointers, so that a Put allocates
// nothing.
var batchPool recycle.Pool[Batch]

// batchStore is where a scan leaf builds its batches: the rows in an
// arena, listed in one slice. A pooled store takes both from the pools
// (arenaChunks, batchPool), reuses them for every batch and gives them
// back at release: the leaf's consumer is done with a batch when it asks
// for the next. An ordered worker's store hands every batch off instead —
// the batch crosses to the consumer's goroutine and waits there — and
// starts the next in fresh private storage, so nothing it handed off is
// ever written again or pooled.
type batchStore struct {
	arena   rowArena
	rows    *Batch // nil once released
	handOff bool
}

// newBatchStore is a leaf's store for rows of width values: a pooled one
// with room for batches of arenaRows rows and a slice of sliceRows, or a
// handing-off one.
func newBatchStore(width, arenaRows, sliceRows int, handOff bool) batchStore {
	if handOff {
		return batchStore{arena: privateArena(width, 0), rows: new(Batch), handOff: true}
	}
	return batchStore{arena: pooledArena(width, arenaRows), rows: pooledBatch(sliceRows)}
}

// reset starts the next batch, of n rows at most: over the last one's
// storage, or in fresh storage sized to n when the last was handed off.
func (s *batchStore) reset(n int) {
	if s.handOff {
		s.arena = privateArena(s.arena.width, n)
		*s.rows = make(Batch, 0, n)
		return
	}
	s.arena.reset()
	*s.rows = (*s.rows)[:0]
}

// release gives a pooled store's storage back, once.
func (s *batchStore) release() {
	if !s.handOff {
		s.arena.release()
		putBatch(s.rows)
	}
	s.rows = nil
}

// pooledBatch takes an empty batch slice with room for n rows from
// batchPool; the leaf gives it back with putBatch at Close.
func pooledBatch(n int) *Batch {
	b := batchPool.Get()
	if cap(*b) < n {
		*b = make(Batch, 0, n)
	}
	return b
}

// putBatch hands b back to batchPool, cleared so that it pins no row; a
// nil b, what a leaf holds once it has handed its slice back, is nothing
// to give.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	clear((*b)[:cap(*b)])
	*b = (*b)[:0]
	batchPool.Put(b)
}

// constScan produces nothing.
type constScan struct{ schema *value.Schema }

func (c *constScan) Schema() *value.Schema           { return c.schema }
func (c *constScan) NextBatch() (Batch, bool, error) { return nil, true, nil }
func (c *constScan) Close()                          {}

// errStopSeek stops an index range scan early when composite keys run
// past the seek prefix; it never escapes seekRIDs.
var errStopSeek = errors.New("seek prefix exhausted")

// seekCtxStride is how many index entries a seek visits between context
// checks: frequent enough that a deadline interrupts a large seek within
// microseconds, rare enough to stay off the per-entry hot path.
const seekCtxStride = 1024

// seekRIDs evaluates one index seek, appending the matching RIDs to dst
// in index order. The seek is an idempotent read, so a transiently
// failing one (injected via fault.SiteIndexSeek) is retried whole under
// the options' policy, from dst's original length; ctx is checked every
// seekCtxStride entries so deadlines interrupt seeks over large key
// ranges mid-flight.
func seekRIDs(ctx context.Context, t *catalog.Table, s *plan.IndexSeek, opts Options, dst []storage.RID) ([]storage.RID, error) {
	ix := findIndexByName(t, s.Index)
	if ix == nil {
		return nil, fmt.Errorf("exec: no index %q on %s", s.Index, s.Table)
	}
	if len(s.EqVals) > len(ix.Columns) {
		return nil, fmt.Errorf("exec: seek on %s.%s uses %d equality values, index has %d columns",
			s.Table, s.Index, len(s.EqVals), len(ix.Columns))
	}
	var prefix []byte
	for _, v := range s.EqVals {
		prefix = v.SortKey(prefix)
	}
	lo := prefix
	if v, _, ok := s.Range.Lo(); ok {
		lo = v.SortKey(append([]byte(nil), prefix...))
	}
	var hi []byte
	hiVal, _, hasHi := s.Range.Hi()
	switch {
	case hasHi:
		// Inclusive-by-construction upper bound: trailing index columns
		// make composite keys extend past the bound value, so append a
		// 0xFF sentinel (no SortKey encoding starts with 0xFF). Rows
		// matching an exclusive bound exactly are dropped by the
		// residual filter — a safe overscan.
		hi = hiVal.SortKey(append([]byte(nil), prefix...))
		hi = append(hi, 0xFF)
	case len(prefix) > 0:
		hi = append(append([]byte(nil), prefix...), 0xFF)
	}
	rids, start := dst, len(dst)
	attempt := func() error {
		if err := opts.Faults.Hit(fault.SiteIndexSeek); err != nil {
			return fmt.Errorf("exec: seek %s.%s: %w", s.Table, s.Index, err)
		}
		rids = rids[:start]
		visited := 0
		err := ix.Tree.AscendRangeErr(lo, hi, true, true, func(e btree.Entry) error {
			if len(prefix) > 0 && !bytes.HasPrefix(e.Key, prefix) {
				return errStopSeek
			}
			visited++
			if visited%seekCtxStride == 0 {
				if cerr := ctxErr(ctx); cerr != nil {
					return cerr
				}
			}
			rids = append(rids, e.RID)
			return nil
		})
		if err == errStopSeek {
			return nil
		}
		return err
	}
	if err := fault.Retry(ctx, opts.Clock, opts.Retry, attempt, opts.onRetry()); err != nil {
		return nil, err
	}
	return rids, nil
}

func findIndexByName(t *catalog.Table, name string) *catalog.Index {
	for _, ix := range t.Indexes() {
		if strings.EqualFold(ix.Name, name) {
			return ix
		}
	}
	return nil
}

// ridFetchCtxStride is how many RID lookups happen between context
// checks: a cancelled query stops fetching within this many random
// reads.
const ridFetchCtxStride = 64

// unionRIDs evaluates every arm of an index union into one slice and
// returns the deduplicated RIDs in heap order, which keeps the random
// I/O of the fetch monotone: sorted once, a RID two arms matched sits
// beside its twin and compacts away.
func unionRIDs(ctx context.Context, t *catalog.Table, x *plan.IndexUnion, opts Options) ([]storage.RID, error) {
	var rids []storage.RID
	for _, s := range x.Seeks {
		// A deadline can expire mid-union: stop between arms rather
		// than completing the remaining seeks for a dead query.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		var err error
		if rids, err = seekRIDs(ctx, t, s, opts, rids); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(rids, func(a, b storage.RID) int {
		if c := cmp.Compare(a.Page, b.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.Slot, b.Slot)
	})
	return slices.Compact(rids), nil
}

// ridFetch fetches rows for a RID list, a batch of live rows at a time,
// decoded into a pooled store of its scanCols' shape, reused by every
// batch and given back at Close. A RID whose row was deleted since the
// index was read costs a lookup and nothing else: the slot it was offered
// goes to the next live row. Each lookup is retried under the options' policy when the random
// page read fails transiently. ctx is checked once per batch and every
// ridFetchCtxStride lookups, so per-query deadlines interrupt long RID
// lists between (not just after) fetches.
type ridFetch struct {
	ctx       context.Context
	rids      []storage.RID
	pos       int
	cols      scanCols
	batchSize int
	retry     fault.RetryPolicy
	clock     fault.Clock
	onRetry   func(error)
	store     batchStore

	// fetch is the lookup fault.Retry runs, built once: it decodes the
	// row at rid into slot, reporting it in tup and ok.
	fetch     func() error
	rid       storage.RID
	slot, tup value.Tuple
	ok        bool
}

func newRIDFetch(ctx context.Context, t *catalog.Table, rids []storage.RID, cols scanCols, opts Options) *ridFetch {
	n := min(opts.BatchSize, len(rids))
	r := &ridFetch{ctx: ctx, rids: rids, cols: cols, batchSize: opts.BatchSize,
		retry: opts.Retry, clock: opts.Clock, onRetry: opts.onRetry(),
		store: newBatchStore(cols.slot, n, n, false)}
	io := ioOf(opts.Collector)
	r.fetch = func() error {
		var err error
		r.tup, r.ok, err = t.FetchInto(io, r.rid, r.slot, r.cols.need)
		return err
	}
	return r
}

func (r *ridFetch) Schema() *value.Schema { return r.cols.schema }

func (r *ridFetch) NextBatch() (Batch, bool, error) {
	if err := ctxErr(r.ctx); err != nil {
		return nil, false, err
	}
	if r.pos >= len(r.rids) {
		return nil, true, nil
	}
	r.store.reset(r.batchSize)
	batch := *r.store.rows
	r.slot = nil
	for len(batch) < r.batchSize && r.pos < len(r.rids) {
		r.rid = r.rids[r.pos]
		r.pos++
		if r.pos%ridFetchCtxStride == 0 {
			if err := ctxErr(r.ctx); err != nil {
				return nil, false, err
			}
		}
		if r.slot == nil {
			r.slot = r.store.arena.next()
		}
		if err := fault.Retry(r.ctx, r.clock, r.retry, r.fetch, r.onRetry); err != nil {
			return nil, false, err
		}
		if !r.ok {
			continue // row deleted since the index was read
		}
		batch = append(batch, r.tup)
		r.slot = nil
	}
	*r.store.rows = batch
	if len(batch) == 0 {
		return nil, true, nil
	}
	return batch, false, nil
}

// Close hands the store back.
func (r *ridFetch) Close() {
	r.rids, r.slot, r.tup = nil, nil, nil
	r.store.release()
}

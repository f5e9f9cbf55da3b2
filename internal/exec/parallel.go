// Morsel-driven parallelism: a scan is split into independent units —
// fixed-size page-range morsels of a heap, or column groups of a sidecar
// — claimed by a pool of workers off a shared atomic cursor (the
// scheduling scheme of Leis et al.'s "Morsel-Driven Parallelism").
//
// The pool only schedules; it never reads a unit. One decision,
// Bound.scanUnits, says how a SeqScan's input is cut: its units, the warm
// prefix that must run serially and in order, the seal that runs once
// after it, and the serial leaf that reads a unit — batchSeqScan pointed
// at a morsel, groupScan pointed at a group. Both consumers take their
// units from it. orderedScan, the scan operator a plan gets, runs the
// warm units on its own leaf, seals, and reads the rest on its own leaf
// or on the pool, reassembling the workers' units in heap order so the
// scan's output is deterministic and identical to the serial scan at any
// DOP. The partial aggregate (aggexec.go) consumes the pool unordered,
// each worker running the plan's own operators over its leaf: its merge
// is order-independent. The two differ in one rule: an ordered worker's
// leaf hands each batch's storage off to the consumer, an aggregate
// worker's keeps its pooled storage across the units it claims.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minequery/internal/catalog"
	"minequery/internal/fault"
	"minequery/internal/plan"
	"minequery/internal/value"
)

// morselPool schedules n units over worker goroutines. It owns the claim
// cursor, the SiteMorselClaim fault site, the per-worker accounting, and
// ctx, the query's context with a stop of its own: what a unit is, where
// its outcome goes, and noticing the stop are the caller's.
type morselPool struct {
	ctx   context.Context
	stop  context.CancelFunc // cancels ctx: every leaf built under it stops reading
	opts  Options
	what  string // names a unit in claim-fault errors: "scan t morsel"
	n     int
	claim atomic.Int64
	wg    sync.WaitGroup
}

func newMorselPool(ctx context.Context, opts Options, what string, n int) *morselPool {
	p := &morselPool{opts: opts, what: what, n: n}
	p.ctx, p.stop = context.WithCancel(ctx)
	return p
}

// workers is the number of goroutines worth starting: one per unit up to
// the DOP.
func (p *morselPool) workers() int { return min(p.opts.DOP, p.n) }

// start launches one worker. It claims units until the cursor runs off
// the end and calls post exactly once for every unit it claimed, with
// that unit's outcome: do's error, or the claim fault. Workers keep
// claiming after a stop, so that every unit is posted and an ordered
// consumer can never block on one; a unit claimed after it fails at once,
// since do reads under ctx. exit, when non-nil, runs on the worker's
// goroutine after its last unit is posted: where a worker gives up what
// it held across units.
//
// Two fault sites are reachable from here: SiteMorselClaim fires right
// after a unit is claimed (a delay-only rule stalls this worker while
// the others drain the remaining units; an error rule fails the unit),
// and inside do the leaf's own sites fire: SiteBatch per batch, and the
// storage layer's sequential-read site per page, absorbed by pageReader's
// per-page retry when a policy is configured.
func (p *morselPool) start(do func(i int) (rows int64, err error), post func(i int, err error), exit func()) {
	var ws *WorkerStats
	if p.opts.Collector != nil {
		ws = p.opts.Collector.newWorker()
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if exit != nil {
			defer exit()
		}
		for {
			i := int(p.claim.Add(1) - 1)
			if i >= p.n {
				return
			}
			if ferr := p.opts.Faults.Hit(fault.SiteMorselClaim); ferr != nil {
				post(i, fmt.Errorf("exec: %s %d: %w", p.what, i, ferr))
				continue
			}
			var start time.Time
			if ws != nil {
				start = time.Now()
			}
			rows, err := do(i)
			if ws != nil {
				ws.Morsels.Add(1)
				ws.Rows.Add(rows)
				ws.WallNanos.Add(time.Since(start).Nanoseconds())
			}
			post(i, err)
		}
	}()
}

// drain runs it dry under ctx, handing every batch to each: what a
// worker does with a unit its leaf was pointed at. ctx is checked before
// every batch, so a stopped worker reads at most the batch it is in.
func drain(ctx context.Context, it BatchIterator, each func(Batch)) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		b, done, err := it.NextBatch()
		if done || err != nil {
			return err
		}
		each(b)
	}
}

// unitReader is a serial scan leaf that reads one unit at a time:
// batchSeqScan pointed at a morsel, groupScan at a column group.
type unitReader interface {
	BatchIterator
	// point makes unit i what the next NextBatch reads, keeping the leaf's
	// storage.
	point(i int)
	// scanned reports the rows of the unit last pointed at.
	scanned() int64
}

// scanUnits is how a SeqScan's input is cut into units and read: the
// fresh sidecar's column groups (core), or the heap's morsels (heap). Of
// the units, the first warm are read serially and in order, and then
// seal runs once; the rest may be read in any order, by any worker's
// leaf. The zero value is a scan that is not cut: one unit, read by a
// plain batchSeqScan.
type scanUnits struct {
	scan   *plan.SeqScan
	ord    int           // the scan's, in its Bound
	filter *plan.Filter  // the Filter fused onto a columnar scan's leaf, or nil
	schema *value.Schema // of the rows a leaf builds
	core   *vecCore
	heap   *heapUnits
}

// heapUnits are a heap scan's morsels and what a leaf reading them needs.
type heapUnits struct {
	table   *catalog.Table
	cols    scanCols
	opts    Options
	morsels [][2]int
}

// scanUnits decides how the scan at ordinal si is cut for one execution.
// ai is the ordinal of the node directly over the scan, or -1: a Filter
// there is fused into a columnar leaf when vec compiled its predicate. A
// columnar scan with a fresh sidecar is cut into its column groups at
// any DOP, the groups its predicate is measured over (vecCore.warm)
// being the warm prefix; a heap scan at DOP > 1 into morsels of
// MorselPages pages, none straddling a partition. A heap scan at DOP 1 is
// not cut.
func (b *Bound) scanUnits(si, ai int, opts Options) scanUnits {
	bs := &b.nodes[si]
	scan := bs.node.(*plan.SeqScan)
	if scan.Columnar {
		if ai >= 0 && b.nodes[ai].prog != nil {
			if core := newVecCore(b, si, ai, opts); core != nil {
				return fusedUnits(b, ai, core)
			}
		}
		if core := newVecCore(b, si, -1, opts); core != nil {
			return scanUnits{scan: scan, ord: si, schema: bs.schema, core: core}
		}
		// Sidecar stale or missing: the flag is only a hint, run the row
		// path with identical results.
	}
	u := scanUnits{scan: scan, ord: si, schema: bs.schema}
	if opts.DOP > 1 {
		u.heap = &heapUnits{table: b.table, cols: b.cols, opts: opts,
			morsels: morselRanges(b.table.PartitionPageRanges(scan.Partitions), opts.MorselPages)}
	}
	return u
}

// fusedUnits are the units of the columnar scan under the Filter at
// ordinal fi, read by core with the filter fused onto its leaf.
func fusedUnits(b *Bound, fi int, core *vecCore) scanUnits {
	bs := &b.nodes[fi+1]
	return scanUnits{scan: bs.node.(*plan.SeqScan), ord: fi + 1, filter: b.nodes[fi].node.(*plan.Filter),
		schema: bs.schema, core: core}
}

func (u *scanUnits) cut() bool { return u.core != nil || u.heap != nil }

// node is the plan node a leaf stands for: the scan, or the Filter fused
// onto it.
func (u *scanUnits) node() plan.Node {
	if u.filter != nil {
		return u.filter
	}
	return u.scan
}

func (u *scanUnits) count() int {
	switch {
	case u.core != nil:
		return len(u.core.groups)
	case u.heap != nil:
		return len(u.heap.morsels)
	}
	return 1
}

// warm is how many leading units are read serially, in order, before
// seal: the column groups a filtered columnar scan measures its
// predicate's terms over.
func (u *scanUnits) warm() int {
	if u.core == nil || u.core.pred == nil {
		return 0
	}
	return min(warmupGroups, len(u.core.groups))
}

func (u *scanUnits) opts() Options {
	if u.core != nil {
		return u.core.opts
	}
	return u.heap.opts
}

// parallel reports whether the units after the warm prefix go to a
// morsel pool: at DOP > 1, whenever any is left.
func (u *scanUnits) parallel() bool { return u.opts().DOP > 1 && u.count() > u.warm() }

// newPool is the morsel pool over the units after the warm prefix.
func (u *scanUnits) newPool(ctx context.Context) *morselPool {
	what := "scan " + u.scan.Table + " morsel"
	if u.core != nil {
		what = "columnar scan " + u.scan.Table + " group"
	}
	return newMorselPool(ctx, u.opts(), what, u.count()-u.warm())
}

// leaf builds a reader of the units under ctx: an ordered worker's, which
// hands every batch's storage off, or one that keeps its pooled storage.
func (u *scanUnits) leaf(ctx context.Context, handOff bool) unitReader {
	if u.core != nil {
		s := newGroupScan(u.core, u.schema, handOff)
		return &s
	}
	h := u.heap
	s := newBatchSeqScan(ctx, h.table, h.cols, h.opts, handOff)
	s.morsels = h.morsels
	return s
}

// seal runs once the warm prefix has: the columnar predicate's term
// order is picked and short-circuiting enabled.
func (u *scanUnits) seal() {
	if u.core != nil && u.core.pred != nil {
		u.core.pred.Freeze()
	}
}

// report publishes the columnar actuals (groups processed, frozen term
// order, per-term counters) to the collector.
func (u *scanUnits) report() {
	if u.core != nil && u.core.opts.Collector != nil {
		u.core.opts.Collector.setVecInfo(u.ord, u.core.info())
	}
}

// morselRanges chunks each page range into morsels of at most
// morselPages pages. Morsels never straddle a range boundary, so on
// partitioned tables each morsel reads from exactly one partition and
// heap-order reassembly yields partition-major row order — the same
// order the serial scan produces.
func morselRanges(ranges [][2]int, morselPages int) [][2]int {
	var out [][2]int
	for _, r := range ranges {
		for lo := r[0]; lo < r[1]; lo += morselPages {
			hi := lo + morselPages
			if hi > r[1] {
				hi = r[1]
			}
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// morselResult is one unit's batches, in heap order.
type morselResult struct {
	batches []Batch
	err     error
}

// orderedScan is the scan leaf of a SeqScan its units cut: the heap at
// DOP > 1, or a columnar scan. NextBatch runs on a single goroutine. It
// reads the warm units on its own leaf, seals, and reads the rest on the
// same leaf, or — parallel — on the pool's workers, one leaf each,
// taking each unit's batches in unit order. The workers deliberately
// hold no reference to it, so an abandoned scan can be collected while
// stragglers finish.
type orderedScan struct {
	scanUnits
	// own is the scan's own leaf. Only a columnar scan has one: a heap
	// scan is cut at DOP > 1 alone and has no warm prefix, so its every
	// unit is a worker's.
	own      groupScan
	ctx      context.Context
	next     int  // the next unit to read or take
	reading  bool // own is reading unit next-1
	sealed   bool
	reported bool // the actuals are published, at Close
	pool     *orderedPool
}

// orderedPool is the consumer end of an ordered scan's pool: one
// single-use buffered channel per unit — the worker that claims unit i
// sends exactly one morselResult to results[i], so no send ever blocks
// and Close never needs to drain or join — and the batches of the unit
// being taken.
type orderedPool struct {
	*morselPool
	results []chan morselResult
	pending []Batch
}

func newOrderedScan(ctx context.Context, u scanUnits) *orderedScan {
	o := &orderedScan{scanUnits: u, ctx: ctx}
	if u.core != nil {
		o.own = newGroupScan(u.core, u.schema, false)
	}
	return o
}

func (o *orderedScan) Schema() *value.Schema { return o.schema }

func (o *orderedScan) NextBatch() (Batch, bool, error) {
	for {
		if err := ctxErr(o.ctx); err != nil {
			return o.fail(err)
		}
		switch {
		case o.pool != nil && len(o.pool.pending) > 0:
			b := o.pool.pending[0]
			o.pool.pending = o.pool.pending[1:]
			return b, false, nil
		case o.reading:
			b, done, err := o.own.NextBatch()
			if err != nil {
				return o.fail(err)
			}
			if !done {
				return b, false, nil
			}
			o.reading = false
		case !o.sealed && o.next == o.warm():
			o.sealed = true
			o.seal()
			if o.parallel() {
				o.fanOut()
			}
		case o.next == o.count():
			return nil, true, nil
		case o.pool != nil:
			r := <-o.pool.results[o.next-o.warm()]
			o.next++
			if r.err != nil {
				return o.fail(r.err)
			}
			o.pool.pending = r.batches
		default:
			o.own.point(o.next)
			o.next++
			o.reading = true
		}
	}
}

// fail stops the workers and returns err: the scan is over.
func (o *orderedScan) fail(err error) (Batch, bool, error) {
	if o.pool != nil {
		o.pool.stop()
	}
	return nil, false, err
}

// fanOut starts the pool's workers over the units after the warm prefix,
// each reading through a leaf of its own that hands its batches off.
func (o *orderedScan) fanOut() {
	pool := o.newPool(o.ctx)
	results := make([]chan morselResult, pool.n)
	for i := range results {
		results[i] = make(chan morselResult, 1)
	}
	for w := pool.workers(); w > 0; w-- {
		leaf, warm := o.leaf(pool.ctx, true), o.warm()
		var res morselResult
		keep := func(b Batch) { res.batches = append(res.batches, b) }
		pool.start(func(i int) (int64, error) {
			leaf.point(warm + i)
			err := drain(pool.ctx, leaf, keep)
			return leaf.scanned(), err
		}, func(i int, err error) {
			res.err = err
			results[i] <- res
			res = morselResult{}
		}, leaf.Close)
	}
	o.pool = &orderedPool{morselPool: pool, results: results}
}

// Close stops the workers, publishes the scan's actuals — once, so that
// a query a LIMIT truncated has them too — and hands the own leaf's
// storage back. The workers hold leaves of their own, which each closes
// when it exits.
func (o *orderedScan) Close() {
	if o.pool != nil {
		o.pool.stop()
		o.pool.pending = nil
	}
	if !o.reported {
		o.reported = true
		o.report()
	}
	o.own.Close()
}

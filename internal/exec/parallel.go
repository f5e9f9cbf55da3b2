// Morsel-driven parallelism: a scan is split into independent units —
// fixed-size page-range morsels of a heap, or column groups of a sidecar
// — claimed by a pool of workers off a shared atomic cursor (the
// scheduling scheme of Leis et al.'s "Morsel-Driven Parallelism").
// morselPool is the one scheduler; orderedScan is the consumer end for
// non-aggregate scans, which reassembles the units in heap order so the
// scan's output is deterministic and identical to the serial scan at
// any DOP. A morsel's batches are cut as the serial scan cuts them, at
// whole pages. (The aggregate driver in aggexec.go consumes the pool
// unordered, each worker running the plan's own operators over the
// units it claims: its merge is order-independent.)
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
	"minequery/internal/storage"
	"minequery/internal/value"
)

// morselPool schedules n units over worker goroutines. It owns the claim
// cursor, the stop flag, the SiteMorselClaim fault site and the
// per-worker accounting; what a unit is and where its outcome goes are
// the caller's.
type morselPool struct {
	ctx    context.Context
	opts   Options
	what   string // names a unit in claim-fault errors: "scan t morsel"
	n      int
	claim  atomic.Int64
	cancel atomic.Bool
	wg     sync.WaitGroup
}

func newMorselPool(ctx context.Context, opts Options, what string, n int) *morselPool {
	return &morselPool{ctx: ctx, opts: opts, what: what, n: n}
}

// workers is the number of goroutines worth starting: one per unit up to
// the DOP.
func (p *morselPool) workers() int { return min(p.opts.DOP, p.n) }

// stop makes every worker skip the units it has yet to claim.
func (p *morselPool) stop() { p.cancel.Store(true) }

// stopped reports whether the pool was stopped or the query context is
// done.
func (p *morselPool) stopped() bool {
	if p.cancel.Load() {
		return true
	}
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// start launches one worker. It claims units until the cursor runs off
// the end and calls post exactly once for every unit it claimed, with
// that unit's outcome: do's error; or, do not having run, the claim
// fault or — once the pool has stopped — the context's error (nil when
// only stop was called). Workers keep claiming after a stop so that
// every unit is posted and an ordered consumer can never block on one.
// exit, when non-nil, runs on the worker's goroutine after its last unit
// is posted: where a worker gives up what it held across units.
//
// Two fault sites are reachable from here: SiteMorselClaim fires right
// after a unit is claimed (a delay-only rule stalls this worker while
// the others drain the remaining units; an error rule fails the unit),
// and the storage layer's sequential-read site fires per page inside
// do, absorbed by pageReader's per-page retry when a policy is
// configured.
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
			if p.stopped() {
				post(i, ctxErr(p.ctx))
				continue
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

// morselResult is one unit's batches, in heap order.
type morselResult struct {
	batches []Batch
	err     error
}

// orderedScan is the consumer end of a pool whose units produce
// batches. nextBatch must be called from a single goroutine (the usual
// iterator contract); the workers it feeds from run concurrently and
// deliberately hold no reference to it, so an abandoned scan can be
// collected while stragglers finish.
type orderedScan struct {
	pool *morselPool
	// results has one single-use buffered channel per unit; the worker
	// that claims unit i sends exactly one morselResult to results[i],
	// so no send ever blocks and close never needs to drain or join.
	results []chan morselResult
	next    int
	pending []Batch
	err     error
}

// startOrdered starts the pool's workers, each over its own producer
// (which owns that worker's scratch state) and the function, or nil,
// that releases that state when the worker exits.
func startOrdered(pool *morselPool, newProducer func() (produce func(i int) ([]Batch, int64, error), exit func())) *orderedScan {
	results := make([]chan morselResult, pool.n)
	for i := range results {
		results[i] = make(chan morselResult, 1)
	}
	for w := pool.workers(); w > 0; w-- {
		produce, exit := newProducer()
		var res morselResult
		pool.start(func(i int) (rows int64, err error) {
			res.batches, rows, err = produce(i)
			return rows, err
		}, func(i int, err error) {
			res.err = err
			results[i] <- res
			res = morselResult{}
		}, exit)
	}
	return &orderedScan{pool: pool, results: results}
}

func (o *orderedScan) nextBatch() (Batch, bool, error) {
	for o.err == nil {
		if o.err = ctxErr(o.pool.ctx); o.err != nil {
			break
		}
		if len(o.pending) > 0 {
			b := o.pending[0]
			o.pending = o.pending[1:]
			return b, false, nil
		}
		if o.next >= len(o.results) {
			return nil, true, nil
		}
		r := <-o.results[o.next]
		o.next++
		o.pending, o.err = r.batches, r.err
	}
	o.pool.stop()
	return nil, false, o.err
}

func (o *orderedScan) close() {
	o.pool.stop()
	o.pending = nil
	o.next = len(o.results)
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

// parallelScan is the row-heap sequential scan at DOP > 1.
type parallelScan struct {
	*orderedScan
	schema *value.Schema
}

func newParallelScan(ctx context.Context, t *catalog.Table, x *plan.SeqScan, cols scanCols, opts Options) *parallelScan {
	morsels := morselRanges(t.PartitionPageRanges(x.Partitions), opts.MorselPages)
	pool := newMorselPool(ctx, opts, "scan "+t.Name+" morsel", len(morsels))
	// A worker's decode turns one morsel into batches, cut the way
	// batchSeqScan cuts them: whole pages, as many as fit in BatchSize
	// rows (one at least). A stop is observed before every page and every
	// BatchSize rows, so a dead or abandoned query decodes fewer than
	// BatchSize rows more, and none in a morsel claimed after it: the
	// morsel ends there. The batches go to another goroutine and wait
	// there for the consumer, so nothing is reused across them: the arena
	// is the morsel's own. The page reader is the worker's, built once.
	worker := func() (func(int) ([]Batch, int64, error), func()) {
		var (
			batches []Batch
			batch   Batch
			rows    int64
			arena   rowArena
		)
		fit := func(live int) bool {
			if len(batch) > 0 && len(batch)+live > opts.BatchSize {
				batches = append(batches, batch)
				batch = make(Batch, 0, opts.BatchSize)
			}
			return !pool.stopped()
		}
		collect := func(_ storage.RID, _ []byte, tup value.Tuple) bool {
			batch = append(batch, tup)
			rows++
			return rows%int64(opts.BatchSize) != 0 || !pool.stopped()
		}
		pages := newPageReader(ctx, t, opts, cols.need, fit, func() value.Tuple { return arena.next() }, collect)
		decode := func(m int) ([]Batch, int64, error) {
			batches, rows = nil, 0
			arena, batch = privateArena(cols.slot, opts.BatchSize), make(Batch, 0, opts.BatchSize)
			_, err := pages.read(morsels[m][0], morsels[m][1])
			if err == nil && pool.stopped() {
				err = ctxErr(ctx) // cut short: never pass for a whole morsel
			}
			if len(batch) > 0 && err == nil {
				batches = append(batches, batch)
			}
			return batches, rows, err
		}
		return decode, nil
	}
	return &parallelScan{orderedScan: startOrdered(pool, worker), schema: cols.schema}
}

func (ps *parallelScan) Schema() *value.Schema { return ps.schema }

func (ps *parallelScan) NextBatch() (Batch, bool, error) { return ps.nextBatch() }

func (ps *parallelScan) Close() { ps.close() }

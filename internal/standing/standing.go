// Package standing is the standing-query engine over the write stream:
// clients register ordinary SELECT statements (including PREDICTION
// JOINs and mining predicates) as subscriptions, and the whole
// registered set is compiled into one shared structure that the write
// path evaluates once per committed batch.
//
// A subscription is the query it was written as. It matches a row when
// its WHERE, evaluated by expr.Eval over the row extended with one
// prediction per PREDICTION JOIN, holds, which is how the query path's
// post-prediction filter decides it. Its guard plays the upper
// envelope's part in the paper's f ∧ u_f: the WHERE weakened to the
// data columns by core.PredCols.Weaken, the walk the query rewriter's
// data predicate comes from, so each mining atom becomes its envelope
// region (interned across the set under the rewriter's
// fingerprint-derived key) and a negated one TRUE, while data atoms
// stay, under a NOT too. Guard false implies WHERE false.
//
// Each table's set is compiled in two parts. The model-free part holds
// the subscriptions without PREDICTION JOINs: their compiled forms,
// Sources and projection slots and their own interval index. It is
// built by the first recompile after the table's subscriptions change
// (Subscribe or Unsubscribe) and then kept, shared and never mutated,
// across every catalog invalidation, since a table outlives every
// catalog event. The model part holds the joined
// subscriptions and is compiled and indexed again on every
// invalidation. Both number a subscription by its registration order
// within the table, in one bitset, and a row's candidates are the OR of
// the two parts' candidates, so a row's notifications come in
// registration order whichever part matched.
//
// The set shares work in two layers, mirroring the paper's amortization
// argument for continuously re-evaluated mining predicates:
//
//   - Subscriptions are indexed by (column, interval), every column the
//     guards compare with a constant, however many constants: in each
//     part, the distinct constants cut the column into segments, each
//     subscription keeps the segments its guard can hold in
//     (opt.PruneSpec, the partition pruning walk, asked over the
//     subscription's own cuts), kept as runs in a static segment tree
//     whose size is linear in the part, and a row stabs each column to
//     skip the subscriptions whose guard it cannot satisfy (see
//     index.go). Each part's cuts are coarser than the whole set's
//     would be, so a row can reach a few more candidates than one
//     set-wide index would give it (standing.evals_per_row can rise a
//     little); which rows match does not change.
//   - Model predictions are memoized per (row, model), and a candidate's
//     models are called only once its whole guard holds: a row touching
//     twenty subscriptions on the same model costs one Predict call, and
//     a guard-rejected row costs zero.
//
// Delivery costs what the subscriber reads. A notification is 24 bytes:
// a sequence number and two shared pointers. A select list is interned
// across the table's subscriptions, and a row's projection through it,
// with the batch's epoch, is one Image, built on the row's first match
// and shared by every later one; what every match of one subscription
// carries is one Source. Matches go through a bounded queue that never
// blocks the write path: when the queue is full the notification is
// dropped and counted, per subscription and in total. Catalog
// invalidations (retrains, index and statistics events) mark the
// compiled set stale, epoch-style, and the next batch recompiles the
// model parts against the current catalog.
package standing

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"minequery/internal/catalog"
	"minequery/internal/core"
	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// ErrUnknownSubscription marks an Unsubscribe of an id that is not
// registered.
var ErrUnknownSubscription = errors.New("unknown subscription")

// Notification is one delivered match: a committed row that satisfied a
// subscription's predicate, projected through its select list. It is 24
// bytes: what every match of one subscription shares is one Source, and
// what every match of one row under one select list shares is one Image.
//
// Source and Image are shared and read-only. Every notification of a
// subscription points at the same Source, and the notifications of one
// row under the same select list point at the same Image; a consumer
// that wants to change either copies it first.
type Notification struct {
	// Seq is the set-wide monotonically increasing delivery sequence.
	Seq int64 `json:"seq"`
	*Source
	*Image
}

// Image is one committed row projected through one select list, with the
// epoch it was evaluated at: it is built on the row's first match under
// that select list and shared, read-only, by every later one.
type Image struct {
	// Row holds the projected values (data columns and, for selected
	// prediction columns, the model's prediction at commit time).
	Row value.Tuple `json:"-"`
	// Epoch is the catalog epoch the match was evaluated at.
	Epoch int64 `json:"epoch"`
}

// Source is what every notification of one subscription carries: it is
// built once per compile of the set and shared, read-only, by all of
// them.
type Source struct {
	// SubID identifies the matched subscription.
	SubID int64 `json:"subscription_id"`
	// Table is the written table.
	Table string `json:"table"`
	// Columns names the projected values, in order.
	Columns []string `json:"columns"`
}

// Stats is a point-in-time snapshot of the set's counters.
type Stats struct {
	// Registered is the number of live subscriptions.
	Registered int
	// Matches counts notifications generated (delivered or dropped).
	Matches int64
	// Evals counts (row, candidate-subscription) predicate evaluations —
	// the work the interval index could not prune.
	Evals int64
	// ModelCalls counts actual model Predict invocations (memoization
	// and guard gating make this far smaller than Evals).
	ModelCalls int64
	// Dropped counts notifications discarded because the queue was full.
	Dropped int64
	// Recompiles counts shared-set recompilations. Subscription churn
	// triggers one, and so does every catalog invalidation the engine
	// forwards: model registration, retrain or drop, index creation or
	// drop, a statistics refresh and enabling columnar storage.
	Recompiles int64
}

// SubscriptionInfo describes one registered subscription.
type SubscriptionInfo struct {
	ID    int64  `json:"id"`
	SQL   string `json:"sql"`
	Table string `json:"table"`
	// Matches and Dropped are this subscription's share of the set
	// counters.
	Matches int64 `json:"matches"`
	Dropped int64 `json:"dropped"`
	// Err is the last compile error, for subscriptions that stopped
	// compiling after a catalog change ("" when healthy). A broken
	// subscription matches nothing until the catalog change is undone.
	Err string `json:"error,omitempty"`
}

// Options tunes a Set.
type Options struct {
	// Queue is the notification queue capacity (default 1024).
	Queue int
}

// rawSub is one registered subscription in source form; compilation to
// the shared structure happens lazily (see recompileLocked).
type rawSub struct {
	id    int64
	sql   string
	table string
	q     *sqlparse.Query

	matches atomic.Int64
	dropped atomic.Int64

	// err is the last compile error (guarded by Set.mu).
	err string
}

// tableSubs is one table's registered subscriptions, in registration
// order (their bits), and its model-free part: kept across catalog
// invalidations, dropped when the subscriptions change and built again
// by the next recompile.
type tableSubs struct {
	subs []*rawSub
	free *part
}

// Set is the shared standing-query structure. Subscribe/Unsubscribe may
// be called from any goroutine; EvalBatch is called by the engine's
// write path (already serialized there) and is safe to interleave with
// registration.
type Set struct {
	cat *catalog.Catalog

	mu     sync.Mutex
	cache  core.EnvelopeCache
	subs   map[int64]*rawSub
	tables map[string]*tableSubs // by lower table name
	dirty  bool
	comp   map[string]*compiledTable // by lower table name

	nextID atomic.Int64
	seq    atomic.Int64

	queue chan Notification

	matches    atomic.Int64
	evals      atomic.Int64
	modelCalls atomic.Int64
	dropped    atomic.Int64
	recompiles atomic.Int64
}

// NewSet returns an empty standing-query set over cat.
func NewSet(cat *catalog.Catalog, opts Options) *Set {
	if opts.Queue <= 0 {
		opts.Queue = 1024
	}
	return &Set{
		cat:    cat,
		subs:   make(map[int64]*rawSub),
		tables: make(map[string]*tableSubs),
		comp:   make(map[string]*compiledTable),
		queue:  make(chan Notification, opts.Queue),
	}
}

// SetCache installs (or removes, with nil) the cache memoizing
// envelope-region assembly across recompiles. It may be the query
// path's cache: a region is the rewriter's entry under the rewriter's
// fingerprint-derived key, notes included.
func (s *Set) SetCache(c core.EnvelopeCache) {
	s.mu.Lock()
	s.cache = c
	s.mu.Unlock()
}

// Subscribe registers sql as a standing query and returns its id. The
// statement must be a SELECT over one table (PREDICTION JOINs and
// mining predicates welcome) without GROUP BY, aggregates, or LIMIT —
// a standing query has no result set to bound or fold.
func (s *Set) Subscribe(sql string) (int64, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	if q.Grouped() {
		return 0, fmt.Errorf("standing: %w: standing queries cannot aggregate", qerr.ErrUnsupportedQuery)
	}
	if q.Limit >= 0 {
		return 0, fmt.Errorf("standing: %w: standing queries cannot LIMIT (the stream is unbounded)", qerr.ErrUnsupportedQuery)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Compile once standalone so registration errors (unknown table,
	// model, or column) surface to the caller instead of poisoning the
	// shared set later.
	sub := &rawSub{sql: sql, q: q}
	ct, err := newTableBuilder(s.cat, q.Table, s.cache, nil)
	if err != nil {
		return 0, err
	}
	if _, err := ct.compileSub(sub); err != nil {
		return 0, err
	}
	sub.id = s.nextID.Add(1)
	sub.table = ct.name
	s.subs[sub.id] = sub
	key := strings.ToLower(sub.table)
	ts := s.tables[key]
	if ts == nil {
		ts = &tableSubs{}
		s.tables[key] = ts
	}
	ts.subs, ts.free = append(ts.subs, sub), nil
	s.dirty = true
	return sub.id, nil
}

// Unsubscribe removes a subscription.
func (s *Set) Unsubscribe(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[id]
	if !ok {
		return fmt.Errorf("standing: %w %d", ErrUnknownSubscription, id)
	}
	delete(s.subs, id)
	key := strings.ToLower(sub.table)
	ts := s.tables[key]
	ts.subs = slices.DeleteFunc(ts.subs, func(x *rawSub) bool { return x == sub })
	ts.free = nil
	if len(ts.subs) == 0 {
		delete(s.tables, key)
	}
	s.dirty = true
	return nil
}

// Invalidate marks the compiled set stale; the next EvalBatch
// recompiles against the current catalog. The engine wires it to
// catalog invalidation events, so retrains and epoch bumps recompile
// exactly like prepared-plan invalidation.
func (s *Set) Invalidate() {
	s.mu.Lock()
	s.dirty = true
	s.mu.Unlock()
}

// Registered returns the live subscription count.
func (s *Set) Registered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Stats snapshots the set counters.
func (s *Set) Stats() Stats {
	return Stats{
		Registered: s.Registered(),
		Matches:    s.matches.Load(),
		Evals:      s.evals.Load(),
		ModelCalls: s.modelCalls.Load(),
		Dropped:    s.dropped.Load(),
		Recompiles: s.recompiles.Load(),
	}
}

// Matches returns the lifetime match count (delivered or dropped).
func (s *Set) Matches() int64 { return s.matches.Load() }

// Evals returns the lifetime (row, candidate) evaluation count.
func (s *Set) Evals() int64 { return s.evals.Load() }

// Dropped returns the lifetime dropped-notification count.
func (s *Set) Dropped() int64 { return s.dropped.Load() }

// Recompiles returns the lifetime recompilation count.
func (s *Set) Recompiles() int64 { return s.recompiles.Load() }

// Subscriptions lists the registered subscriptions in registration
// order.
func (s *Set) Subscriptions() []SubscriptionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SubscriptionInfo, 0, len(s.subs))
	for _, sub := range s.subs {
		out = append(out, SubscriptionInfo{
			ID:      sub.id,
			SQL:     sub.sql,
			Table:   sub.table,
			Matches: sub.matches.Load(),
			Dropped: sub.dropped.Load(),
			Err:     sub.err,
		})
	}
	// Ids are handed out under s.mu, so they are registration order.
	slices.SortFunc(out, func(a, b SubscriptionInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// snapshot returns the compiled table for name, recompiling first if the
// set is dirty.
func (s *Set) snapshot(table string) *compiledTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		s.recompileLocked()
	}
	return s.comp[strings.ToLower(table)]
}

// recompileLocked rebuilds the shared structure from the registered
// subscriptions against the current catalog. Caller holds s.mu. A
// table's model-free part is reused as it is unless its subscriptions
// changed; its model part is compiled and indexed again.
func (s *Set) recompileLocked() {
	s.dirty = false
	s.recompiles.Add(1)
	s.comp = make(map[string]*compiledTable, len(s.tables))
	for key, ts := range s.tables {
		ct, err := ts.compile(s.cat, s.cache)
		if err != nil {
			for _, sub := range ts.subs {
				sub.err = err.Error()
			}
			continue
		}
		if ct != nil {
			s.comp[key] = ct
		}
	}
}

// compile compiles the table's subscriptions against the current
// catalog, building its model-free part first if it has none. It
// returns nil when no subscription compiled.
func (ts *tableSubs) compile(cat *catalog.Catalog, cache core.EnvelopeCache) (*compiledTable, error) {
	if ts.free == nil {
		b, err := newTableBuilder(cat, ts.subs[0].table, cache, nil)
		if err != nil {
			return nil, err
		}
		ts.free = b.compilePart(ts.subs, false)
	}
	b, err := newTableBuilder(cat, ts.subs[0].table, cache, ts.free)
	if err != nil {
		return nil, err
	}
	ct := b.compiledTable
	ct.free, ct.joined = ts.free, b.compilePart(ts.subs, true)
	if len(ct.free.subs)+len(ct.joined.subs) == 0 {
		return nil, nil
	}
	return ct, nil
}

// EvalBatch classifies one committed batch of new row images against
// the shared set and enqueues a notification per match. It never
// blocks: a full queue drops the notification and bumps the typed drop
// counters. The engine calls it under its write lock, immediately after
// the batch is applied.
func (s *Set) EvalBatch(table string, rows []value.Tuple, epoch int64) {
	if len(rows) == 0 {
		return
	}
	ct := s.snapshot(table)
	if ct == nil {
		return
	}
	rc := newRowCtx(ct, epoch, &s.modelCalls)
	cand := make([]uint64, 3*ct.words)
	cand, scratch := cand[:ct.words], cand[ct.words:]
	evals := 0
	for _, row := range rows {
		rc.reset(row)
		ct.candidates(row, cand, scratch)
		for w, word := range cand {
			for word != 0 {
				i := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				cs := ct.sub(i)
				evals++
				if !cs.match(rc) {
					continue
				}
				s.matches.Add(1)
				cs.src.matches.Add(1)
				n := Notification{Seq: s.seq.Add(1), Source: cs.source, Image: rc.project(cs.proj)}
				select {
				case s.queue <- n:
				default:
					s.dropped.Add(1)
					cs.src.dropped.Add(1)
				}
			}
		}
	}
	s.evals.Add(int64(evals))
}

// Poll returns up to max pending notifications, waiting for at least
// one until ctx is done (long-poll semantics). On timeout or
// cancellation with nothing pending it returns ctx's error. Every
// notification it returns has a non-nil Source and Image.
func (s *Set) Poll(ctx context.Context, max int) ([]Notification, error) {
	if max <= 0 {
		max = 100
	}
	var out []Notification
	select {
	case n := <-s.queue:
		// Sized once, for what is pending now: the drain below never waits,
		// so it takes little more than this even while writers keep sending.
		out = append(make([]Notification, 0, min(max, 1+len(s.queue))), n)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for len(out) < max {
		select {
		case n := <-s.queue:
			out = append(out, n)
		default:
			return out, nil
		}
	}
	return out, nil
}

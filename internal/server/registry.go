package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"minequery"
	"minequery/internal/sqlparse"
)

// stmtEntry is one registered statement. The registry's map lock is
// never held across engine calls; each entry serializes its own
// (re)preparation under entry.mu while executions of an already-valid
// plan proceed without it.
type stmtEntry struct {
	id    string
	key   string
	sql   string
	norm  string // normalized SQL, sans hint prefix (slowlog display)
	force bool   // ForceSeqScan hint baked into the plan

	mu       sync.Mutex
	prepared *minequery.Prepared
}

// tableName reports the base table of the entry's plan, or "" before
// the first preparation (the breaker then skips this execution).
func (e *stmtEntry) tableName() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prepared == nil {
		return ""
	}
	t, _ := e.prepared.References()
	return t
}

// registry caches prepared statements keyed by normalized SQL: two
// spellings of the same query share one plan. Entries go stale via the
// catalog epoch and are re-prepared lazily on next use — invalidation
// events are only counted, never walked, so a retrain costs O(1) no
// matter how many statements are registered.
type registry struct {
	eng *minequery.Engine

	mu    sync.Mutex
	next  int64
	byKey map[string]*stmtEntry
	byID  map[string]*stmtEntry
	order []string // keys in insertion order, for FIFO eviction

	hits       atomic.Int64 // prepare/execute served from a cached valid plan
	misses     atomic.Int64 // first-time preparations
	reprepares atomic.Int64 // stale plans rebuilt in place
	evictions  atomic.Int64
}

// maxStatements bounds the registry; the oldest entry is evicted first.
const maxStatements = 256

func newRegistry(eng *minequery.Engine) *registry {
	return &registry{
		eng:   eng,
		byKey: map[string]*stmtEntry{},
		byID:  map[string]*stmtEntry{},
	}
}

// cacheKey normalizes sql and folds in plan hints, so the same text
// prepared with different hints yields distinct plans. The bare
// normalized form is returned alongside for display surfaces (the
// slow-query log) that must not leak the hint prefix.
func cacheKey(sql string, force bool) (key, norm string, err error) {
	norm, err = sqlparse.Normalize(sql)
	if err != nil {
		return "", "", err
	}
	if force {
		return "force-seqscan|" + norm, norm, nil
	}
	return norm, norm, nil
}

// lookup finds or creates the entry for (sql, force) without preparing
// it. The bool reports whether the entry already existed. Unhinted text
// that is already some entry's key — what a coordinator sends, having
// normalized it — is that entry without being normalized again: sound
// because Normalize is idempotent. A forced entry's key is hint-prefixed
// text, which an unhinted request must not reach.
func (r *registry) lookup(sql string, force bool) (*stmtEntry, bool, error) {
	if !force {
		r.mu.Lock()
		ent, ok := r.byKey[sql]
		r.mu.Unlock()
		if ok && !ent.force {
			return ent, true, nil
		}
	}
	key, norm, err := cacheKey(sql, force)
	if err != nil {
		// Pass the error through untouched: it wraps minequery.ErrParse,
		// which classify maps to the typed parse_error code.
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ent, ok := r.byKey[key]; ok {
		return ent, true, nil
	}
	for len(r.byKey) >= maxStatements && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		if old, ok := r.byKey[victim]; ok {
			delete(r.byKey, victim)
			delete(r.byID, old.id)
			r.evictions.Add(1)
		}
	}
	r.next++
	ent := &stmtEntry{id: fmt.Sprintf("q%d", r.next), key: key, sql: sql, norm: norm, force: force}
	r.byKey[key] = ent
	r.byID[ent.id] = ent
	r.order = append(r.order, key)
	return ent, false, nil
}

func (r *registry) byStatementID(id string) (*stmtEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent, ok := r.byID[id]
	return ent, ok
}

// plan returns the entry's plan, building it when it is missing or
// stale, and counts the hit, the miss (no plan existed yet, whoever
// created the entry) or the re-prepare. reused reports whether the plan
// was built by an earlier call: the /v1/prepare response's "cached"
// field and the hit counter's definition.
func (r *registry) plan(ent *stmtEntry) (p *minequery.Prepared, reused bool, err error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.prepared != nil && ent.prepared.Valid() {
		r.hits.Add(1)
		return ent.prepared, true, nil
	}
	p, err = r.eng.Prepare(ent.sql, planHints(ent.force)...)
	if err != nil {
		return nil, false, err
	}
	if ent.prepared != nil {
		r.reprepares.Add(1)
	} else {
		r.misses.Add(1)
	}
	ent.prepared = p
	return p, false, nil
}

// maxExecuteRetries bounds the re-prepare loop: each retry means the
// catalog changed mid-flight, so more than a handful signals a retrain
// storm and the caller gets the staleness error instead of livelock.
const maxExecuteRetries = 5

// execute runs the entry's plan, lazily (re)preparing when the plan is
// missing or stale. planReused reports whether this call executed a
// plan built by an earlier call — the signal that the prepared path
// skipped parse, envelope derivation, and optimization entirely. The
// rows go to sink; a re-prepared plan's execution is a new attempt.
func (r *registry) execute(ctx context.Context, ent *stmtEntry, sink minequery.RowSink, execOpts []minequery.QueryOption) (res *minequery.Result, planReused bool, err error) {
	for attempt := 0; attempt <= maxExecuteRetries; attempt++ {
		p, reused, perr := r.plan(ent)
		if perr != nil {
			return nil, false, perr
		}
		if res, err = p.ExecuteInto(ctx, sink, execOpts...); err == nil {
			return res, reused, nil
		}
		if !errors.Is(err, minequery.ErrStalePlan) {
			return nil, false, err
		}
		// Plan went stale between the validity check and execution; loop
		// to rebuild against the new catalog state.
	}
	return nil, false, err
}

// planHints translates the registry's force flag to Prepare options.
func planHints(force bool) []minequery.QueryOption {
	if force {
		return []minequery.QueryOption{minequery.WithForcedPath("seqscan")}
	}
	return nil
}

// registryStats is the /v1/stats view of the statement cache.
type registryStats struct {
	Size       int   `json:"size"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Reprepares int64 `json:"reprepares"`
	Evictions  int64 `json:"evictions"`
}

func (r *registry) stats() registryStats {
	r.mu.Lock()
	size := len(r.byKey)
	r.mu.Unlock()
	return registryStats{
		Size:       size,
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Reprepares: r.reprepares.Load(),
		Evictions:  r.evictions.Load(),
	}
}

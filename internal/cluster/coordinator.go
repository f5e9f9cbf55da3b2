package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minequery"
	"minequery/internal/agg"
	"minequery/internal/fault"
	"minequery/internal/sqlparse"
	"minequery/internal/wire"
)

// Config tunes a Coordinator. Zero values take the documented defaults.
type Config struct {
	// ShardTimeout is the per-shard request deadline (default 10s).
	ShardTimeout time.Duration
	// Retry bounds retries of transient per-shard failures (zero value:
	// fault.DefaultRetryPolicy with network-scale backoff).
	Retry fault.RetryPolicy
	// BreakerThreshold trips a remote's circuit after that many
	// consecutive availability failures (default 3; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped remote stays open before a
	// probe (default 5s).
	BreakerCooldown time.Duration
	// AllowPartial, when true, turns a shard availability failure into
	// a degraded partial result (Degraded set, MissingShards listed,
	// never silent) instead of a typed error. Default false: strict —
	// any unavailable shard fails the query with ErrShardUnavailable.
	AllowPartial bool
	// HTTP overrides the transport (tests inject httptest clients).
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.Retry == (fault.RetryPolicy{}) {
		c.Retry = fault.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Jitter: 0.5}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// maxReplans bounds how many epoch-mismatch/stale-plan rounds one
// shard execution absorbs before the coordinator stops chasing catalog
// churn and either runs unguarded or surfaces the error.
const maxReplans = 3

// shardState is the coordinator's last-observed view of one node.
type shardState struct {
	// epoch is the shard's last seen catalog epoch (-1: never synced).
	epoch int64
	// models maps lowercased model name to the shard's registration
	// info; nil when unknown or invalidated by an epoch change.
	models map[string]wire.ModelInfo
	// digest is the wire.ModelsDigest of the answer models came from.
	digest string
}

// coordStmt is one entry of the coordinator's statement table: a
// normalized text and its outline, and, once prepared, the statement's
// id and how many shards answered its /v1/prepare. Every field is
// guarded by the coordinator mu.
type coordStmt struct {
	norm    string
	outline *minequery.PlanOutline
	id      string // "" until Prepare issues one
	seq     int    // the number in id, which Statements lists by
	shards  int
}

// maxOutlines bounds the statement table, evicted oldest first: the
// size of a node's statement registry. Ad-hoc and prepared statements
// share it, so an evicted id answers not_found.
const maxOutlines = 256

// Counters is a snapshot of the coordinator's lifetime counters; they
// back the minequery_shard_* metric series.
type Counters struct {
	// Queries counts coordinator executions (fan-outs, not per-shard).
	Queries int64 `json:"queries"`
	// Planned/Pruned/Queried/Degraded count shard slots across all
	// queries: every query contributes NumShards to Planned.
	Planned  int64 `json:"shards_planned"`
	Pruned   int64 `json:"shards_pruned"`
	Queried  int64 `json:"shards_queried"`
	Degraded int64 `json:"shards_degraded"`
	// Errors counts per-shard availability failures surfaced or
	// absorbed; Retries counts transient per-shard retries; Replans
	// counts epoch-mismatch/stale-plan recovery rounds.
	Errors  int64 `json:"shard_errors"`
	Retries int64 `json:"shard_retries"`
	Replans int64 `json:"replans"`
}

// Request is one coordinator execution: exactly one of SQL or
// StatementID, plus per-call knobs.
type Request struct {
	SQL         string
	StatementID string
	// DOP overrides each shard's scan parallelism (<=0: shard default).
	DOP int
}

// Result is a merged coordinator answer.
type Result struct {
	StatementID string
	Columns     []string
	// Schema self-describes each output column (name, value kind, and
	// projected-vs-aggregate provenance), taken from the first answering
	// shard (every shard plans the same statement, so they agree).
	Schema []wire.ColumnMeta
	// Rows are the shards' encoded arrays concatenated in shard order,
	// never decoded, so they are byte-identical to a single node over the
	// union. Aggregate statements instead carry rows finalized once at the
	// coordinator from the merged per-shard partial states, appended by
	// the row encoder a single-node daemon uses.
	Rows       wire.RowSet
	ShardStats wire.ShardStats
	// AggMerges counts the per-shard partial aggregate states folded
	// into the finalized answer (aggregate statements only).
	AggMerges int64
	// Degraded is set when AllowPartial accepted missing shards; the
	// rows are a sound subset, MissingShards lists what's absent, and
	// Notes explains — never silently short.
	Degraded      bool
	MissingShards []int
	Notes         []string
	// Retries totals per-shard transient retries for this query.
	Retries int64
	// Epoch is the planner's catalog epoch the outline was derived at.
	Epoch int64
}

// Coordinator fans one logical minequery database out over a shard
// map: it plans each query once on a local planner engine (schema +
// models, no rows), prunes shards whose key range is provably disjoint
// from the envelope-rewritten predicate, and scatter-gathers the
// survivors with per-shard deadlines, bounded retries, and a circuit
// breaker per remote.
type Coordinator struct {
	planner *minequery.Engine
	shards  *Map
	client  *Client
	breaker *fault.BreakerSet
	cfg     Config

	mu       sync.Mutex
	states   []shardState
	stmts    map[string]*coordStmt // by normalized text
	order    []string              // stmts keys in insertion order, for FIFO eviction
	byID     map[string]*coordStmt // the prepared entries of stmts
	nextStmt int

	queries, planned, pruned, queried atomic.Int64
	degraded, errorsN, retries        atomic.Int64
	replans                           atomic.Int64
}

// New builds a coordinator over a shard map. planner must hold the
// sharded table's schema and every model the fleet serves — it plans
// and prunes; it needs no rows.
func New(planner *minequery.Engine, m *Map, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	states := make([]shardState, m.NumShards())
	for i := range states {
		states[i].epoch = -1
	}
	return &Coordinator{
		planner: planner,
		shards:  m,
		client:  NewClient(cfg.HTTP),
		breaker: fault.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		cfg:     cfg,
		states:  states,
		stmts:   map[string]*coordStmt{},
		byID:    map[string]*coordStmt{},
	}
}

// Map returns the coordinator's shard map.
func (c *Coordinator) Map() *Map { return c.shards }

// Counters snapshots the lifetime counters.
func (c *Coordinator) Counters() Counters {
	return Counters{
		Queries:  c.queries.Load(),
		Planned:  c.planned.Load(),
		Pruned:   c.pruned.Load(),
		Queried:  c.queried.Load(),
		Degraded: c.degraded.Load(),
		Errors:   c.errorsN.Load(),
		Retries:  c.retries.Load(),
		Replans:  c.replans.Load(),
	}
}

// BreakerOpen returns how many remotes have a non-closed circuit.
func (c *Coordinator) BreakerOpen() int { return c.breaker.OpenCount() }

// BreakerTrips returns the cumulative remote circuit trips.
func (c *Coordinator) BreakerTrips() int64 { return c.breaker.Trips() }

// ShardStatuses reports per-node status for \shards and /v1/cluster.
func (c *Coordinator) ShardStatuses() []wire.ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.ShardStatus, c.shards.NumShards())
	for i, sh := range c.shards.Shards {
		out[i] = wire.ShardStatus{
			ID:        sh.ID,
			Addr:      sh.Addr,
			Breaker:   c.breaker.StateOf(sh.Addr),
			LastEpoch: c.states[i].epoch,
			Models:    len(c.states[i].models),
			Range:     c.rangeOf(i),
		}
	}
	return out
}

// rangeOf renders shard i's key range ("[lo, hi)"); "" for hash maps.
func (c *Coordinator) rangeOf(i int) string {
	if c.shards.Mode != ModeRange {
		return ""
	}
	lo, hi := "-inf", "+inf"
	if i > 0 {
		lo = c.shards.Bounds[i-1].String()
	}
	if i < len(c.shards.Bounds) {
		hi = c.shards.Bounds[i].String()
	}
	return fmt.Sprintf("[%s, %s)", lo, hi)
}

// SyncShard refreshes the coordinator's view of shard i's catalog. When
// it holds the shard's models, it sends the epoch it cached them at and
// their digest; a shard still at that epoch with those models answers
// the epoch alone, and the models are kept. The shard reads its epoch
// before its models, so a full answer never pairs an epoch with models
// older than it (DESIGN §13).
func (c *Coordinator) SyncShard(ctx context.Context, i int) error {
	c.mu.Lock()
	cached := c.states[i]
	c.mu.Unlock()
	since := int64(-1)
	if cached.models != nil {
		since = cached.epoch
	}
	sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	info, err := c.client.Info(sctx, c.shards.Shards[i].Addr, since, cached.digest)
	if err != nil {
		return &ShardError{Shard: i, Addr: c.shards.Shards[i].Addr, Err: err}
	}
	if since >= 0 && info.Epoch == since && info.Models == nil {
		return nil
	}
	models := make(map[string]wire.ModelInfo, len(info.Models))
	for _, m := range info.Models {
		models[strings.ToLower(m.Name)] = m
	}
	c.mu.Lock()
	c.states[i] = shardState{epoch: info.Epoch, models: models, digest: wire.ModelsDigest(info.Models)}
	c.mu.Unlock()
	return nil
}

// Sync refreshes every shard concurrently, returning the first error
// (by shard index) if any node is unreachable.
func (c *Coordinator) Sync(ctx context.Context) error {
	errs := make([]error, c.shards.NumShards())
	var wg sync.WaitGroup
	for i := range c.shards.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.SyncShard(ctx, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lookup returns sql's entry in the statement table with an outline
// planned at the planner's current catalog epoch, planning it when the
// text is new or the epoch moved. With prepare it issues the entry an
// id if it has none; cached reports that it had one. The table keeps
// the maxOutlines newest texts, so ad-hoc traffic cannot grow it
// without bound.
func (c *Coordinator) lookup(sql string, prepare bool) (st *coordStmt, o *minequery.PlanOutline, cached bool, err error) {
	norm, err := sqlparse.Normalize(sql)
	if err != nil {
		return nil, nil, false, err
	}
	epoch := c.planner.CatalogEpoch()
	c.mu.Lock()
	st = c.stmts[norm]
	if st == nil || st.outline.Epoch != epoch {
		c.mu.Unlock()
		if o, err = c.planner.Outline(sql); err != nil {
			return nil, nil, false, err
		}
		c.mu.Lock()
		if st = c.stmts[norm]; st == nil {
			for len(c.stmts) >= maxOutlines && len(c.order) > 0 {
				old := c.stmts[c.order[0]]
				delete(c.stmts, old.norm)
				delete(c.byID, old.id)
				c.order = c.order[1:]
			}
			st = &coordStmt{norm: norm}
			c.stmts[norm] = st
			c.order = append(c.order, norm)
		}
		st.outline = o
	}
	defer c.mu.Unlock()
	cached = st.id != ""
	if prepare && !cached {
		c.nextStmt++
		st.seq = c.nextStmt
		st.id = fmt.Sprintf("cq%d", st.seq)
		c.byID[st.id] = st
	}
	return st, st.outline, cached, nil
}

// pruneDecision classifies every shard for one query.
type pruneDecision struct {
	// query[i]: scatter to shard i. envPruned[i]: skipped, but the skip
	// leaned on envelope terms and needs runtime validation when models
	// are referenced. dataPruned[i]: skipped on the query's own data
	// predicate alone — unconditionally sound.
	query, envPruned, dataPruned []bool
}

// decide computes the prune decision for an outline. Envelope-driven
// skips require the shard's referenced-model fingerprints to match the
// planner's; a shard whose models are unknown or divergent is queried
// instead (always locally sound), never pruned.
func (c *Coordinator) decide(ctx context.Context, o *minequery.PlanOutline) pruneDecision {
	n := c.shards.NumShards()
	full := c.shards.PruneShards(o.DataPred)
	base := c.shards.PruneShards(o.BaselinePred)
	d := pruneDecision{
		query:      make([]bool, n),
		envPruned:  make([]bool, n),
		dataPruned: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		switch {
		case !base[i]:
			// The user's own predicate misses this shard's range: no
			// model semantics involved, prune unconditionally.
			d.dataPruned[i] = true
		case !full[i]:
			// Only the envelope-augmented predicate misses it: sound iff
			// this shard's models match the planner's envelopes.
			if len(o.Models) == 0 || c.fingerprintsMatch(ctx, i, o) {
				d.envPruned[i] = true
			} else {
				d.query[i] = true
			}
		default:
			d.query[i] = true
		}
	}
	return d
}

// fingerprintsMatch reports whether shard i's registrations of every
// model the outline references carry the planner's fingerprints,
// syncing the shard's info first when it has never been observed. Any
// doubt — unknown state, failed sync, missing model, divergent hash —
// answers false, which demotes a prune to a query.
func (c *Coordinator) fingerprintsMatch(ctx context.Context, i int, o *minequery.PlanOutline) bool {
	c.mu.Lock()
	models := c.states[i].models
	c.mu.Unlock()
	if models == nil {
		if err := c.SyncShard(ctx, i); err != nil {
			return false
		}
		c.mu.Lock()
		models = c.states[i].models
		c.mu.Unlock()
	}
	for _, ref := range o.Models {
		mi, ok := models[ref.Name]
		if !ok || mi.Fingerprint != ref.Fingerprint {
			return false
		}
	}
	return true
}

// shardOutcome is one shard's terminal result for a query.
type shardOutcome struct {
	resp *wire.ShardExecResponse
	err  error
}

// Execute runs one statement across the fleet and merges the answer.
func (c *Coordinator) Execute(ctx context.Context, req Request) (*Result, error) {
	if (req.SQL == "") == (req.StatementID == "") {
		return nil, errors.New("cluster: exactly one of SQL or StatementID is required")
	}
	sql := req.SQL
	if req.StatementID != "" {
		c.mu.Lock()
		st := c.byID[req.StatementID]
		if st != nil {
			sql = st.norm
		}
		c.mu.Unlock()
		if st == nil {
			return nil, &RemoteError{Status: http.StatusNotFound, Code: wire.CodeNotFound, Message: "no statement " + req.StatementID}
		}
	}
	_, o, _, err := c.lookup(sql, false)
	if err != nil {
		return nil, err
	}
	c.queries.Add(1)
	n := c.shards.NumShards()
	c.planned.Add(int64(n))

	d := c.decide(ctx, o)
	outcomes := make([]shardOutcome, n)
	validated := make([]bool, n) // envPruned shards whose prune survived validation
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		switch {
		case d.query[i]:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outcomes[i] = c.execOnShard(ctx, i, o, req)
			}(i)
		case d.envPruned[i] && len(o.Models) > 0:
			// Validate the envelope-driven skip in parallel with the
			// scatter: cheap info fetch, and only a fingerprint change
			// demotes the prune to a second-wave query.
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := c.SyncShard(ctx, i); err != nil {
					outcomes[i] = shardOutcome{err: err}
					return
				}
				if c.fingerprintsMatch(ctx, i, o) {
					validated[i] = true
					return
				}
				// The shard retrained since the outline: its model may
				// predict rows the planner's envelope excluded. Query it;
				// its local plan is sound against its local model.
				c.replans.Add(1)
				outcomes[i] = c.execOnShard(ctx, i, o, req)
				d.query[i], d.envPruned[i] = true, false
			}(i)
		default:
			validated[i] = d.envPruned[i] || d.dataPruned[i]
		}
	}
	wg.Wait()

	return c.merge(o, d, outcomes, req.StatementID)
}

// merge assembles the final Result from per-shard outcomes, enforcing
// the failure policy.
func (c *Coordinator) merge(o *minequery.PlanOutline, d pruneDecision, outcomes []shardOutcome, statementID string) (*Result, error) {
	n := c.shards.NumShards()
	res := &Result{Epoch: o.Epoch, StatementID: statementID}
	res.ShardStats.Planned = n

	// Aggregate statements gather un-finalized per-shard states into one
	// merge table; everything else gathers finalized row parts.
	var tab *agg.Table
	if o.Agg != nil {
		tab = agg.NewTable(o.Agg)
	}
	parts := make([]wire.RowSet, 0, n)
	var missing []int
	var firstShardErr, firstRemoteErr error
	for i := 0; i < n; i++ {
		out := outcomes[i]
		switch {
		case d.query[i] && out.err == nil && out.resp != nil:
			res.ShardStats.Queried++
			if tab != nil {
				if out.resp.AggPartial == nil {
					return nil, fmt.Errorf("cluster: shard %d answered an aggregate statement without partial state", i)
				}
				if err := tab.MergeWire(out.resp.AggPartial); err != nil {
					return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
				}
			} else {
				parts = append(parts, out.resp.Rows)
			}
			if res.Columns == nil {
				res.Columns = out.resp.Columns
				res.Schema = out.resp.Schema
			}
			res.Retries += out.resp.Retries
			if out.resp.Degraded || out.resp.Fallback {
				res.Notes = append(res.Notes, fmt.Sprintf("shard %d ran degraded/fallback (rows identical)", i))
			}
		case d.query[i]:
			var re *RemoteError
			if errors.As(out.err, &re) {
				if firstRemoteErr == nil {
					firstRemoteErr = out.err
				}
				continue
			}
			c.errorsN.Add(1)
			missing = append(missing, i)
			if firstShardErr == nil {
				firstShardErr = out.err
			}
		case out.err != nil:
			// A pruned shard whose validation fetch failed: the skip can
			// no longer be proven sound, and the shard cannot be queried.
			c.errorsN.Add(1)
			missing = append(missing, i)
			if firstShardErr == nil {
				firstShardErr = out.err
			}
		default:
			res.ShardStats.Pruned++
		}
	}
	if firstRemoteErr != nil {
		// The fleet is reachable; the query itself failed remotely.
		// Surface the shard's typed error exactly as a single node would.
		return nil, firstRemoteErr
	}
	if firstShardErr != nil {
		if !c.cfg.AllowPartial {
			return nil, firstShardErr
		}
		res.Degraded = true
		res.MissingShards = missing
		c.degraded.Add(int64(len(missing)))
		res.ShardStats.Degraded = len(missing)
		res.Notes = append(res.Notes, fmt.Sprintf("partial result: shards %v unavailable (%v)", missing, firstShardErr))
		if tab != nil {
			// Unlike plain row subsets, partial aggregates over a subset of
			// shards change the computed values, not just omit rows.
			res.Notes = append(res.Notes, "aggregates computed over available shards only")
		}
		if res.ShardStats.Queried == 0 {
			// Nothing answered: a "partial" result with zero sound rows
			// is indistinguishable from wrong rows — fail instead.
			return nil, firstShardErr
		}
	}
	c.pruned.Add(int64(res.ShardStats.Pruned))
	c.queried.Add(int64(res.ShardStats.Queried))

	if res.Columns == nil {
		// Every shard pruned: the predicate is unsatisfiable across the
		// whole domain. Run locally on the (empty) planner for the
		// column shape a single node's constant scan would produce.
		local, err := c.planner.Query(context.Background(), o.Norm)
		if err != nil {
			return nil, err
		}
		res.Columns = local.ColumnNames()
		res.Schema = WireSchema(local.Columns)
	}
	if tab != nil {
		// Finalize once over every shard's merged state; the canonical
		// group order makes LIMIT-after-finalize match a single node's
		// Limit-above-final-HashAgg exactly. With zero shards queried
		// (all pruned) the empty table still finalizes correctly: no rows
		// for GROUP BY, the aggregate-identity row for scalar aggregates.
		rows := tab.Finalize()
		if o.Limit >= 0 && int64(len(rows)) > o.Limit {
			rows = rows[:o.Limit]
		}
		res.AggMerges = tab.Merges()
		var err error
		if res.Rows, err = wire.EncodeRows(rows); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.Rows = wire.ConcatRows(parts, o.Limit)
	return res, nil
}

// WireSchema converts a result's column metadata to the wire form.
func WireSchema(cols []minequery.ColumnMeta) []wire.ColumnMeta {
	out := make([]wire.ColumnMeta, len(cols))
	for i, c := range cols {
		out[i] = wire.ColumnMeta{Name: c.Name, Kind: c.Kind.String(), Source: c.Source}
	}
	return out
}

// execOnShard runs one statement on shard i to a terminal outcome:
// breaker admission, bounded transient retries, and bounded
// epoch-mismatch / stale-plan recovery rounds. The shard gets the
// statement's normalized text, which its registry finds with one map
// lookup or plans afresh.
func (c *Coordinator) execOnShard(ctx context.Context, i int, o *minequery.PlanOutline, req Request) shardOutcome {
	addr := c.shards.Shards[i].Addr
	shed, probe := c.breaker.Allow(addr)
	if shed {
		c.errorsN.Add(1)
		return shardOutcome{err: &ShardError{Shard: i, Addr: addr,
			Err: errors.New("circuit breaker open")}}
	}

	guarded := len(o.Models) > 0
	var resp *wire.ShardExecResponse
	var lastErr error
	for round := 0; round <= maxReplans; round++ {
		ereq := wire.ShardExecRequest{SQL: o.Norm, TimeoutMS: c.cfg.ShardTimeout.Milliseconds(), DOP: req.DOP, AggPartial: o.Agg != nil}
		if guarded && round < maxReplans {
			c.mu.Lock()
			ep := c.states[i].epoch
			c.mu.Unlock()
			if ep >= 0 {
				ereq.ExpectedEpoch = &ep
			}
			// Final round runs unguarded: the shard plans locally against
			// whatever catalog it has, which is always locally sound —
			// liveness wins once churn outruns the replan budget.
		}

		attempt := func() error {
			sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
			defer cancel()
			r, err := c.client.Exec(sctx, addr, ereq)
			if err != nil {
				return err
			}
			resp = r
			return nil
		}
		lastErr = fault.Retry(ctx, nil, c.cfg.Retry, attempt, func(error) { c.retries.Add(1) })
		if lastErr == nil {
			break
		}
		var re *RemoteError
		if errors.As(lastErr, &re) {
			switch re.Code {
			case wire.CodeEpochMismatch:
				// The shard's catalog moved: refresh our view (new epoch +
				// fingerprints) and replan the guard.
				c.replans.Add(1)
				if err := c.SyncShard(ctx, i); err != nil {
					lastErr = err
					break
				}
				continue
			case wire.CodeStalePlan:
				// The shard's own lazy re-prepare lost a churn race; one
				// more round gives it a fresh epoch to plan at.
				c.replans.Add(1)
				continue
			}
		}
		break
	}

	if lastErr == nil {
		c.breaker.Report(addr, probe, false)
		c.observeEpoch(i, resp.Epoch)
		return shardOutcome{resp: resp}
	}
	var re *RemoteError
	if errors.As(lastErr, &re) {
		// The shard answered; the query failed there. That is signal the
		// node is alive, not an availability failure.
		c.breaker.Report(addr, probe, false)
		return shardOutcome{err: lastErr}
	}
	if ctx.Err() != nil && probe {
		// The coordinator's own deadline died mid-probe: proves nothing
		// about the remote.
		c.breaker.ProbeInconclusive(addr)
	} else {
		c.breaker.Report(addr, probe, true)
	}
	return shardOutcome{err: &ShardError{Shard: i, Addr: addr, Err: lastErr}}
}

// observeEpoch folds a shard's reported epoch into the coordinator's
// state; an epoch move invalidates the cached model fingerprints so
// the next prune decision resyncs before trusting them.
func (c *Coordinator) observeEpoch(i int, epoch int64) {
	c.mu.Lock()
	if c.states[i].epoch != epoch {
		c.states[i] = shardState{epoch: epoch}
	}
	c.mu.Unlock()
}

// Prepare plans a statement once on the coordinator, issues it an id,
// and plans its text on every reachable shard. The fleet shares plans
// by normalized text: each shard's registry dedupes on it, so N
// coordinators preparing the same query converge on one plan per node,
// and a shard that missed this call plans the text when it is executed.
func (c *Coordinator) Prepare(ctx context.Context, sql string) (*wire.PreparedInfo, error) {
	st, o, cached, err := c.lookup(sql, true)
	if err != nil {
		return nil, err
	}
	var answered atomic.Int64
	var wg sync.WaitGroup
	for i := range c.shards.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
			defer cancel()
			if _, err := c.client.Prepare(sctx, c.shards.Shards[i].Addr, o.Norm); err == nil {
				answered.Add(1)
			}
		}(i)
	}
	wg.Wait()
	n := int(answered.Load())
	c.mu.Lock()
	st.shards = n
	c.mu.Unlock()
	return &wire.PreparedInfo{StatementID: st.id, Cached: cached, Norm: o.Norm, ShardsPrepared: n}, nil
}

// ExplainAnalyze profiles the statement across the fleet: the prune
// decision, the shards line, and each queried shard's own per-operator
// report stitched in shard order.
func (c *Coordinator) ExplainAnalyze(ctx context.Context, sql string) (string, error) {
	_, o, _, err := c.lookup(sql, false)
	if err != nil {
		return "", err
	}
	d := c.decide(ctx, o)
	n := c.shards.NumShards()
	stats := wire.ShardStats{Planned: n}
	reports := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !d.query[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
			defer cancel()
			rep, err := c.client.ExplainAnalyze(sctx, c.shards.Shards[i].Addr, o.Norm, c.cfg.ShardTimeout)
			if err != nil {
				reports[i] = fmt.Sprintf("  error: %v", err)
				return
			}
			reports[i] = indent(rep.Analyze)
		}(i)
	}
	wg.Wait()

	var b strings.Builder
	fmt.Fprintf(&b, "cluster: table=%s mode=%s column=%s\n", c.shards.Table, c.shards.Mode, c.shards.Column)
	for i := 0; i < n; i++ {
		switch {
		case d.query[i]:
			stats.Queried++
		default:
			stats.Pruned++
		}
	}
	fmt.Fprintln(&b, stats.String())
	for _, note := range o.Notes {
		fmt.Fprintf(&b, "rewrite: %s\n", note)
	}
	for i := 0; i < n; i++ {
		sh := c.shards.Shards[i]
		switch {
		case d.dataPruned[i]:
			fmt.Fprintf(&b, "shard %d %s %s: pruned (data predicate disjoint from range)\n", i, sh.Addr, c.rangeOf(i))
		case d.envPruned[i]:
			fmt.Fprintf(&b, "shard %d %s %s: pruned (envelope disjoint from range)\n", i, sh.Addr, c.rangeOf(i))
		default:
			fmt.Fprintf(&b, "shard %d %s %s:\n%s\n", i, sh.Addr, c.rangeOf(i), reports[i])
		}
	}
	return b.String(), nil
}

// Statements lists the coordinator's prepared statements in the order
// their ids were issued.
func (c *Coordinator) Statements() []wire.PreparedInfo {
	c.mu.Lock()
	sts := make([]*coordStmt, 0, len(c.byID))
	for _, st := range c.byID {
		sts = append(sts, st)
	}
	sort.Slice(sts, func(a, b int) bool { return sts[a].seq < sts[b].seq })
	out := make([]wire.PreparedInfo, len(sts))
	for i, st := range sts {
		out[i] = wire.PreparedInfo{StatementID: st.id, Norm: st.norm, ShardsPrepared: st.shards}
	}
	c.mu.Unlock()
	return out
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}

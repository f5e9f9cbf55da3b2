// Package cluster distributes minequery over a fleet of minequeryd
// nodes: a table is sharded across N nodes by range or hash on one
// column, and a coordinator plans each query once — parse, normalize,
// envelope rewrite — then intersects the rewritten data predicate with
// each shard's key range to skip shards outright, scatter-gathering
// the survivors over the daemon HTTP/JSON protocol.
//
// This is the paper's envelope exploitation lifted one level up the
// storage hierarchy: `predict(x) = c` implies the sound data predicate
// `U_c(x)`, which first chose index paths (PR 1–3), then skipped
// partitions (PR 5), and here skips entire network round-trips. The
// pruning walk is shared with partition pruning (opt.PruneSpec), so
// the soundness argument is inherited: a pruned shard's key range is
// provably disjoint from the predicate's satisfiable region.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"minequery/internal/interval"
	"minequery/internal/value"
)

// Mode selects how rows are distributed across shards.
type Mode string

const (
	// ModeRange splits the shard column's domain at explicit bounds:
	// shard i covers [Bounds[i-1], Bounds[i]), the segments of
	// interval.Cuts with nodes for partitions. Range sharding
	// preserves the single-node partitioned scan order, so merged
	// results are byte-identical to one node holding the union.
	ModeRange Mode = "range"
	// ModeHash routes each row by FNV-64a of the shard column's sort
	// key, modulo the shard count. Pruning is point-based (Eq/In on the
	// shard column); merged row order is deterministic but not the
	// single-node order.
	ModeHash Mode = "hash"
)

// Shard is one node in the fleet.
type Shard struct {
	// ID is the shard's index in the map (also its merge position).
	ID int `json:"id"`
	// Addr is the node's base URL, e.g. "http://127.0.0.1:7655".
	Addr string `json:"addr"`
}

// Map is the cluster catalog entry for one sharded table.
type Map struct {
	// Table is the sharded table's name (lowercased).
	Table string `json:"table"`
	// Column is the shard key column (lowercased).
	Column string `json:"column"`
	// Mode is range or hash.
	Mode Mode `json:"mode"`
	// Bounds are the range split points (ModeRange only):
	// len(Shards)-1 ascending values; shard i covers
	// [Bounds[i-1], Bounds[i]), NULLs route to shard 0.
	Bounds interval.Cuts `json:"-"`
	// Shards lists the nodes in shard-index order.
	Shards []Shard `json:"shards"`
}

// NewRangeMap builds a range shard map: len(addrs) shards split at the
// given ascending bounds (len(addrs)-1 of them).
func NewRangeMap(table, column string, bounds []value.Value, addrs []string) (*Map, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: a shard map needs at least one node")
	}
	if len(bounds) != len(addrs)-1 {
		return nil, fmt.Errorf("cluster: %d shards need %d range bounds, got %d",
			len(addrs), len(addrs)-1, len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if value.Compare(bounds[i-1], bounds[i]) >= 0 {
			return nil, fmt.Errorf("cluster: range bounds must be strictly ascending (bound %d)", i)
		}
	}
	for _, b := range bounds {
		if b.IsNull() {
			return nil, errors.New("cluster: range bounds must not be NULL")
		}
	}
	return newMap(table, column, ModeRange, bounds, addrs)
}

// NewHashMap builds a hash shard map over len(addrs) shards.
func NewHashMap(table, column string, addrs []string) (*Map, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: a shard map needs at least one node")
	}
	return newMap(table, column, ModeHash, nil, addrs)
}

func newMap(table, column string, mode Mode, bounds []value.Value, addrs []string) (*Map, error) {
	if table == "" || column == "" {
		return nil, errors.New("cluster: shard map needs a table and a shard column")
	}
	shards := make([]Shard, len(addrs))
	seen := map[string]bool{}
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("cluster: shard %d has an empty address", i)
		}
		if seen[a] {
			return nil, fmt.Errorf("cluster: duplicate shard address %q", a)
		}
		seen[a] = true
		shards[i] = Shard{ID: i, Addr: strings.TrimRight(a, "/")}
	}
	return &Map{
		Table:  strings.ToLower(table),
		Column: strings.ToLower(column),
		Mode:   mode,
		Bounds: bounds,
		Shards: shards,
	}, nil
}

// NumShards returns the fleet size.
func (m *Map) NumShards() int { return len(m.Shards) }

// ShardFor routes one shard-column value to its owning shard index
// (the write-path analog of the pruning walk; tests and seeders use it
// to split a row stream).
func (m *Map) ShardFor(v value.Value) int {
	if m.Mode == ModeHash {
		return hashShard(v, len(m.Shards))
	}
	return m.Bounds.Stab(v)
}

// hashShard routes v to a hash shard: NULLs to shard 0, everything
// else by FNV-64a of the value's order-preserving sort key.
func hashShard(v value.Value, n int) int {
	if v.IsNull() {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write(v.SortKey(nil))
	return int(h.Sum64() % uint64(n))
}

// ---- typed errors ----

// ErrShardUnavailable is the sentinel every shard availability failure
// wraps: connection refused, per-shard deadline exceeded, a 5xx that
// survived retries, or a circuit breaker shedding the shard. Match
// with errors.Is; the concrete error is a *ShardError carrying the
// shard id and cause.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// ErrEpochMismatch reports that a shard's catalog epoch no longer
// matches the coordinator's expectation — the fleet-level analog of
// minequery.ErrStalePlan. The coordinator resyncs the shard's model
// fingerprints and retries; it only surfaces when churn outpaces the
// bounded replan budget.
var ErrEpochMismatch = errors.New("cluster: shard catalog epoch changed")

// ShardError is an availability failure on one shard.
type ShardError struct {
	// Shard is the failing shard's index; Addr its base URL.
	Shard int
	Addr  string
	// Err is the underlying cause.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s) unavailable: %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Is makes every ShardError match ErrShardUnavailable.
func (e *ShardError) Is(target error) bool { return target == ErrShardUnavailable }

// RemoteError is a non-availability error a shard returned through the
// JSON error envelope: the shard is alive and answered, the query
// itself failed there. The coordinator passes it through with the
// original code so clients see the same typed error a single node
// would have produced.
type RemoteError struct {
	// Status is the HTTP status the shard returned.
	Status int
	// Code is the wire error code (e.g. wire.CodeParse, wire.CodeStalePlan).
	Code string
	// Message is the shard's error text.
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: remote %s: %s", e.Code, e.Message)
}

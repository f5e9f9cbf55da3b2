// Shard pruning: the partition-pruning walk applied to a shard map. A
// range map's bounds are interval.Cuts whose segments are nodes, so
// range pruning is opt.PruneSpec — the same stabs, the same soundness
// argument. Hash maps get a point-based leaf: only equality and IN on
// the shard column pin hash buckets; everything else keeps all shards.
// Both are opt.PruneWalk with a different leaf.
package cluster

import (
	"minequery/internal/expr"
	"minequery/internal/opt"
	"minequery/internal/value"
)

// PruneShards returns, per shard, whether it may hold a row satisfying
// pred (false = provably disjoint, skip the round-trip). The walk is
// conservative: anything it cannot reason about keeps the shard, so
// pruning never changes results, only fan-out.
func (m *Map) PruneShards(pred expr.Expr) []bool {
	if m.Mode == ModeRange {
		return opt.PruneSpec(m.Column, m.Bounds, pred)
	}
	n := len(m.Shards)
	return opt.PruneWalk(n, pred, func(col string, op expr.CmpOp, vals []value.Value) []bool {
		if col != m.Column || op != expr.OpEq {
			// Hash placement scatters ranges across every bucket; only
			// equality pins one.
			return nil
		}
		keep := make([]bool, n)
		for _, v := range vals {
			keep[hashShard(v, n)] = true
		}
		return keep
	})
}

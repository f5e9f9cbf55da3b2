package cluster

import "minequery/internal/wire"

// CachedModel reports what the coordinator holds for shard i: the epoch
// it last observed there and its registration of model name.
func (c *Coordinator) CachedModel(i int, name string) (epoch int64, mi wire.ModelInfo, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mi, ok = c.states[i].models[name]
	return c.states[i].epoch, mi, ok
}

// MaxOutlines is the statement table's bound.
const MaxOutlines = maxOutlines

// Package server is minequeryd's core: a long-running HTTP/JSON front
// end over a minequery.Engine with sessions, a prepared-statement
// registry, a shared envelope cache, and admission control. The
// embedded engine stays single-writer for catalog changes, while query
// execution is concurrency-safe; the server documents the one caveat —
// per-query I/O counters are attributed engine-wide, so CostUnits of
// overlapping queries can bleed into each other.
package server

import (
	"sync"
	"sync/atomic"

	"minequery"
)

// envCache is a bounded, concurrency-safe minequery.EnvelopeCache with
// FIFO eviction and hit/miss counters. Correctness never depends on
// eviction policy: keys embed model content fingerprints, so a stale
// entry is unreachable by construction and eviction is purely a space
// bound.
type envCache struct {
	mu    sync.Mutex
	m     map[string]minequery.CachedEnvelope
	order []string // insertion order, for FIFO eviction

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	purges    atomic.Int64
}

// envCacheEntries bounds the cache; the oldest entry is evicted first.
const envCacheEntries = 1024

func newEnvCache() *envCache {
	return &envCache{m: make(map[string]minequery.CachedEnvelope)}
}

func (c *envCache) Get(key string) (minequery.CachedEnvelope, bool) {
	c.mu.Lock()
	ce, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ce, ok
}

func (c *envCache) Put(key string, ce minequery.CachedEnvelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		c.m[key] = ce
		return
	}
	for len(c.m) >= envCacheEntries && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.m, victim)
		c.evictions.Add(1)
	}
	c.m[key] = ce
	c.order = append(c.order, key)
}

// Purge empties the cache. Fingerprint keying makes this optional for
// correctness; the server calls it on model-affecting invalidation
// events so dead entries stop occupying the budget.
func (c *envCache) Purge() {
	c.mu.Lock()
	c.m = make(map[string]minequery.CachedEnvelope)
	c.order = nil
	c.mu.Unlock()
	c.purges.Add(1)
}

// envCacheStats is the /v1/stats view of the cache.
type envCacheStats struct {
	Size      int   `json:"size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Purges    int64 `json:"purges"`
}

func (c *envCache) stats() envCacheStats {
	c.mu.Lock()
	size := len(c.m)
	c.mu.Unlock()
	return envCacheStats{
		Size:      size,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Purges:    c.purges.Load(),
	}
}

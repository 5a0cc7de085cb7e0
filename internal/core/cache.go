package core

import (
	"sync"
	"sync/atomic"
)

// cacheEntry is a cached interior node: the view parsed once when the cache
// was filled, shared by every operation that passes through it.
type cacheEntry struct {
	view    *nodeView
	version uint64 // item version observed at fetch time
	seqVer  uint64 // legacy mode: version of the replicated seq-table entry
}

// nodeCache is the proxy-side cache of interior B-tree nodes (§2.3). It is
// deliberately incoherent: "the cache is part of the proxy application code,
// and does not ensure coherency across proxies or across objects cached at
// the same proxy". Correctness comes from the traversal safety checks and
// from OCC validation, not from the cache.
//
// Eviction is random-victim: when full, an arbitrary batch of entries is
// dropped. Interior nodes are tiny and refetches are one round trip, so
// recency bookkeeping is not worth its synchronization cost.
type nodeCache struct {
	mu  sync.RWMutex
	max int
	m   map[Ptr]cacheEntry // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntries bounds every tree handle's proxy node cache.
const cacheEntries = 1 << 16

func newNodeCache(maxEntries int) *nodeCache {
	return &nodeCache{max: maxEntries, m: make(map[Ptr]cacheEntry, maxEntries/4)}
}

func (c *nodeCache) get(p Ptr) (cacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[p]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// put caches e at p unless the cache already holds a newer image of p: two
// loads that race past an eviction may refill it in either order.
func (c *nodeCache) put(p Ptr, e cacheEntry) {
	c.mu.Lock()
	if old, ok := c.m[p]; ok && old.version > e.version {
		c.mu.Unlock()
		return
	}
	if len(c.m) >= c.max {
		// Drop ~1/8 of the cache; map iteration order is effectively
		// random, which is all the eviction policy needs.
		drop := c.max / 8
		if drop < 1 {
			drop = 1
		}
		for k := range c.m {
			delete(c.m, k)
			drop--
			if drop == 0 {
				break
			}
		}
	}
	c.m[p] = e
	c.mu.Unlock()
}

func (c *nodeCache) invalidate(p Ptr) {
	c.mu.Lock()
	delete(c.m, p)
	c.mu.Unlock()
}

func (c *nodeCache) reset() {
	c.mu.Lock()
	c.m = make(map[Ptr]cacheEntry, c.max/4)
	c.mu.Unlock()
}

func (c *nodeCache) stats() (hits, misses int64, size int) {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), n
}

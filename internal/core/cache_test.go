package core

import "testing"

// TestNodeCachePutKeepsNewerVersion: two loads that race past an eviction
// may refill the cache in either order; the older image must not win.
func TestNodeCachePutKeepsNewerVersion(t *testing.T) {
	c := newNodeCache(16)
	p := Ptr{Node: 1, Addr: 4096}
	c.put(p, cacheEntry{version: 5})
	c.put(p, cacheEntry{version: 3})
	if e, _ := c.get(p); e.version != 5 {
		t.Fatalf("older image replaced a newer one: cached version %d", e.version)
	}
	c.put(p, cacheEntry{version: 7})
	if e, _ := c.get(p); e.version != 7 {
		t.Fatalf("newer image not cached: cached version %d", e.version)
	}
}

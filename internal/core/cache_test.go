package core

import (
	"testing"

	"minuet/internal/alloc"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

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

// TestLoadTipRacingInvalidateStaysInvalid: the tip is fetched without
// tipMu, and an invalidateTip that lands while the fetch is in flight must
// leave the cache invalid, or a tip that changed during the fetch would be
// served as current until the next failed commit.
func TestLoadTipRacingInvalidateStaysInvalid(t *testing.T) {
	tr := netsim.NewLocal(0)
	m := sinfonia.NewMemnode(0)
	var during func()
	tr.Bind(0, netsim.HandlerFunc(func(req any) (any, error) {
		if f := during; f != nil {
			during = nil
			f()
		}
		return m.HandleRPC(req)
	}))
	c := sinfonia.NewClient(tr, []sinfonia.NodeID{0})
	cfg := smallCfg()
	bt, err := Create(c, alloc.New(c, cfg.NodeSize, 16), 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	bt.invalidateTip()
	during = func() {
		if !bt.tipMu.TryLock() {
			t.Error("tipMu held across the tip fetch")
			return
		}
		bt.tipMu.Unlock()
		bt.invalidateTip()
	}
	if _, err := bt.loadTip(); err != nil {
		t.Fatal(err)
	}
	if during != nil {
		t.Fatal("the fetch never reached the memnode")
	}
	if bt.tip.valid {
		t.Fatal("a fetch that raced invalidateTip was cached as valid")
	}

	// Without a race the fetch is cached, and the next load is a hit.
	if _, err := bt.loadTip(); err != nil {
		t.Fatal(err)
	}
	calls := tr.Stats().Calls
	tip, err := bt.loadTip()
	if err != nil || !tip.valid || !bt.tip.valid || tr.Stats().Calls != calls {
		t.Fatalf("tip not cached after an unraced fetch: valid %v, err %v, calls %d → %d",
			bt.tip.valid, err, calls, tr.Stats().Calls)
	}
}

package minuet

import (
	"testing"

	"minuet/internal/ycsb"
)

// TestReadPathAllocBudget keeps the read path's allocation diet in place: a
// get searches the fetched leaf image where it lies (one view and its offset
// table, no per-key copies), the transaction's read set and the one-memnode
// minitransaction build no maps, and a scan builds its pairs straight from
// the leaf images. Before the node view a warm get made 237 allocations and
// a 1000-key snapshot scan 2.3 per key; the budgets below leave a few
// allocations of slack over today's 14 and 0.13, no more.
func TestReadPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-key preload; the race job runs -short")
	}
	c := NewCluster(Options{Machines: 2}) // netsim.Local, default 4 KiB nodes
	defer c.Close()
	tree, err := c.CreateTree("budget")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = ycsb.Key(uint64(i))
		if err := tree.Put(keys[i], ycsb.Value(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) {
		if v, ok, err := tree.Get(keys[i%n]); err != nil || !ok || len(v) == 0 {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	for i := 0; i < n; i += 10 {
		get(i) // warm the proxy's interior-node cache
	}

	i := 0
	perGet := testing.AllocsPerRun(2000, func() { get(i); i += 7 })
	if perGet > 18 {
		t.Errorf("Tree.Get: %.1f allocs/op, budget 18", perGet)
	}
	const scanLen = 1000
	perScan := testing.AllocsPerRun(50, func() {
		if kvs, err := tree.ScanSnapshot(snap, nil, scanLen); err != nil || len(kvs) != scanLen {
			t.Fatalf("scan: %d pairs, %v", len(kvs), err)
		}
	})
	if perKey := perScan / scanLen; perKey > 0.3 {
		t.Errorf("ScanSnapshot: %.2f allocs/key (%.0f per %d-key scan), budget 0.3", perKey, perScan, scanLen)
	}
	t.Logf("Tree.Get %.0f allocs/op; ScanSnapshot %.0f allocs per %d keys", perGet, perScan, scanLen)
}

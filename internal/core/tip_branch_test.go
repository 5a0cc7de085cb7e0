package core

import (
	"sync"
	"testing"
)

// TestTipOpsFollowMainlineOnBranchingTree is the regression test for plain
// (un-addressed) Put/Get/Remove/ScanTip on branching trees. They used to
// route through the fixed tip-root cell, which catalog-based root updates do
// not maintain — so after the root grew, plain operations read a stale root.
// They must instead resolve the mainline tip through the catalog.
func TestTipOpsFollowMainlineOnBranchingTree(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))

	// Grow the tree well past one root split via version-addressed writes,
	// which maintain only the catalog slot (not the tip-root cell).
	const n = 60
	for i := 0; i < n; i++ {
		if err := e.bt.PutAt(1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Plain reads must see every key through the resolved tip.
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("plain Get key %d after catalog root growth: %q %v %v", i, v, ok, err)
		}
	}
	if kvs, err := e.bt.ScanTip(nil, n+10); err != nil || len(kvs) != n {
		t.Fatalf("plain ScanTip: %d keys, %v", len(kvs), err)
	}

	// Plain writes land on the writable tip (still version 1).
	if err := e.bt.Put([]byte("plain"), []byte("tip-write")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := e.bt.GetAt(1, []byte("plain")); err != nil || !ok || string(v) != "tip-write" {
		t.Fatalf("plain Put did not land on version 1: %q %v %v", v, ok, err)
	}

	// Freeze version 1 by branching; the mainline tip becomes version 2.
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	if br.Sid != 2 {
		t.Fatalf("first branch sid = %d", br.Sid)
	}

	// Plain operations must now follow the mainline to version 2.
	if err := e.bt.Put(key(0), []byte("after-freeze")); err != nil {
		t.Fatalf("plain Put after freeze: %v", err)
	}
	if v, ok, err := e.bt.GetAt(2, key(0)); err != nil || !ok || string(v) != "after-freeze" {
		t.Fatalf("plain Put did not land on the branch tip: %q %v %v", v, ok, err)
	}
	if v, ok, err := e.bt.GetAt(1, key(0)); err != nil || !ok || string(v) != string(val(0)) {
		t.Fatalf("frozen parent disturbed by plain Put: %q %v %v", v, ok, err)
	}
	if v, ok, err := e.bt.Get(key(0)); err != nil || !ok || string(v) != "after-freeze" {
		t.Fatalf("plain Get did not follow the mainline: %q %v %v", v, ok, err)
	}

	// Plain Remove works against the resolved tip too.
	existed, err := e.bt.Remove(key(1))
	if err != nil || !existed {
		t.Fatalf("plain Remove: existed=%v err=%v", existed, err)
	}
	if _, ok, err := e.bt.GetAt(2, key(1)); err != nil || ok {
		t.Fatalf("Remove did not land on the branch tip: ok=%v err=%v", ok, err)
	}
	if _, ok, err := e.bt.GetAt(1, key(1)); err != nil || !ok {
		t.Fatalf("frozen parent disturbed by plain Remove: ok=%v err=%v", ok, err)
	}

	// The merged tip view: n keys (one removed, one added).
	kvs, err := e.bt.ScanTip(nil, n+10)
	if err != nil || len(kvs) != n {
		t.Fatalf("plain ScanTip after branch: %d keys, %v", len(kvs), err)
	}
}

// TestSnapshotOfBranchingTreeIsFrozen: on a branching tree, creating a
// snapshot branches the mainline tip, so the snapshot is a frozen version
// that later tip writes do not reach, and Tip and a later branch see the
// version tree that creation left. Snapshot creation used to rewrite the
// linear tip cells, which a branching tree seeds at Create and never
// maintains: the "snapshot" was the live tip, and Tip reported a version id
// that a later branch then reused.
func TestSnapshotOfBranchingTreeIsFrozen(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, e.bt, i)
	}
	snap, err := e.bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sid != initialSnapID {
		t.Fatalf("first snapshot sid %d, want %d", snap.Sid, initialSnapID)
	}
	for i := 0; i < n; i++ {
		if err := e.bt.Put(key(i), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.GetSnap(snap, key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("snapshot key %d: %q %v %v", i, v, ok, err)
		}
	}
	kvs, err := e.bt.ScanSnapshot(snap, nil, 2*n)
	if err != nil || len(kvs) != n {
		t.Fatalf("snapshot scan: %d keys, %v", len(kvs), err)
	}
	for i, kv := range kvs {
		if string(kv.Val) != string(val(i)) {
			t.Fatalf("snapshot scan key %d: %q", i, kv.Val)
		}
	}

	tip, err := e.bt.Tip()
	if err != nil {
		t.Fatal(err)
	}
	mainline, err := e.bt.ResolveTip(initialSnapID)
	if err != nil {
		t.Fatal(err)
	}
	if tip.Sid == snap.Sid || tip.Sid != mainline || tip.Root != versionRoot(t, e, mainline) {
		t.Fatalf("tip %+v after snapshot %+v; mainline is %d at %v", tip, snap, mainline, versionRoot(t, e, mainline))
	}
	if v, ok, err := e.bt.GetAt(tip.Sid, key(0)); err != nil || !ok || string(v) != "overwritten" {
		t.Fatalf("tip version key 0: %q %v %v", v, ok, err)
	}
	br, err := e.bt.CreateBranch(snap.Sid)
	if err != nil {
		t.Fatal(err)
	}
	if br.Sid == tip.Sid {
		t.Fatalf("branch of the snapshot reused the tip's id %d", br.Sid)
	}
	if v, ok, err := e.bt.GetAt(br.Sid, key(0)); err != nil || !ok || string(v) != string(val(0)) {
		t.Fatalf("branch of the snapshot key 0: %q %v %v", v, ok, err)
	}
}

// TestConcurrentSnapshotsOfBranchingTree: snapshots created concurrently
// from two proxies each freeze a distinct mainline version and never add a
// sibling: the mainline stays a chain with one version per snapshot plus
// the tip.
func TestConcurrentSnapshotsOfBranchingTree(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	for i := 0; i < 40; i++ {
		mustPut(t, e.bt, i)
	}
	proxies := []*BTree{e.bt, e.openProxy(t, e.nodes[1])}
	const workers, each = 4, 5
	sids := make(chan uint64, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(bt *BTree) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s, err := bt.CreateSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				sids <- s.Sid
			}
		}(proxies[w%len(proxies)])
	}
	wg.Wait()
	close(sids)
	seen := map[uint64]bool{}
	for sid := range sids {
		if seen[sid] {
			t.Fatalf("snapshot %d returned twice", sid)
		}
		seen[sid] = true
	}
	vs, err := e.bt.ListVersions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != workers*each+1 {
		t.Fatalf("%d versions after %d snapshots", len(vs), workers*each)
	}
	for _, v := range vs {
		if v.NumChildren > 1 {
			t.Fatalf("version %d has %d children: a snapshot added a sibling", v.Sid, v.NumChildren)
		}
		if !seen[v.Sid] && !v.Writable() {
			t.Fatalf("version %d frozen by no snapshot", v.Sid)
		}
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSnapshotIsolation(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	for i := 0; i < 50; i++ {
		mustPut(t, e.bt, i)
	}
	snap, err := e.bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the tip heavily after the snapshot.
	for i := 0; i < 50; i++ {
		if err := e.bt.Put(key(i), []byte("mutated")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < 120; i++ {
		mustPut(t, e.bt, i)
	}
	// The snapshot still shows the original values and no new keys.
	for i := 0; i < 50; i++ {
		v, ok, err := e.bt.GetSnap(snap, key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("snapshot key %d: %q %v %v", i, v, ok, err)
		}
	}
	if _, ok, _ := e.bt.GetSnap(snap, key(75)); ok {
		t.Fatal("snapshot sees a key inserted after it was taken")
	}
	// The tip shows the new state.
	v, ok, _ := e.bt.Get(key(10))
	if !ok || string(v) != "mutated" {
		t.Fatalf("tip lost its update: %q", v)
	}
}

func TestSnapshotChain(t *testing.T) {
	e := newEnv(t, 3, smallCfg())
	snaps := make([]Snapshot, 0, 5)
	for s := 0; s < 5; s++ {
		if err := e.bt.Put(key(1), []byte(fmt.Sprintf("gen%d", s))); err != nil {
			t.Fatal(err)
		}
		snap, err := e.bt.CreateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	for s, snap := range snaps {
		v, ok, err := e.bt.GetSnap(snap, key(1))
		want := fmt.Sprintf("gen%d", s)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("snapshot %d: %q %v %v, want %q", s, v, ok, err, want)
		}
		if snap.Sid != uint64(s+1) {
			t.Fatalf("snapshot ids must be sequential: got %d want %d", snap.Sid, s+1)
		}
	}
}

func TestSnapshotScanStableUnderUpdates(t *testing.T) {
	e := newEnv(t, 3, smallCfg())
	const n = 300
	for i := 0; i < n; i++ {
		mustPut(t, e.bt, i)
	}
	snap, err := e.bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent updaters on the tip while we scan the snapshot repeatedly.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		bt := e.openProxy(t, e.nodes[w])
		wg.Add(1)
		go func(w int, bt *BTree) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := bt.Put(key(i%n), []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("updater: %v", err)
					return
				}
				i++
			}
		}(w, bt)
	}

	for round := 0; round < 10; round++ {
		kvs, err := e.bt.ScanSnapshot(snap, nil, n+10)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != n {
			t.Fatalf("round %d: snapshot scan saw %d keys, want %d", round, len(kvs), n)
		}
		for i, kv := range kvs {
			if string(kv.Key) != string(key(i)) || string(kv.Val) != string(val(i)) {
				t.Fatalf("round %d: snapshot drifted at %q=%q", round, kv.Key, kv.Val)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestTipScanAbortsUnderHeavyWrites(t *testing.T) {
	// Demonstrates the paper's motivation for snapshots: a long tip scan
	// validates every leaf, so a concurrent update inside the range forces
	// an abort-and-retry; with updates continuously arriving the scan burns
	// retries (we only check that it does retry, not that it starves).
	e := newEnv(t, 2, smallCfg())
	const n = 150
	for i := 0; i < n; i++ {
		mustPut(t, e.bt, i)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		bt := e.openProxy(t, e.nodes[1])
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = bt.Put(key(i%n), []byte("x"))
			i++
		}
	}()
	before := e.bt.Stats().Retries
	_, _ = e.bt.ScanTip(nil, n) // may or may not succeed; retries counted
	close(stop)
	<-done
	if e.bt.Stats().Retries == before {
		t.Log("no retries observed (timing-dependent); acceptable but unusual")
	}
}

func TestSCSBorrowing(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	for i := 0; i < 20; i++ {
		mustPut(t, e.bt, i)
	}
	scs := NewSCS(e.bt)
	// Fire many concurrent snapshot requests; borrowing must keep the
	// number actually created well below the number requested.
	const requests = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[uint64]bool{}
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, _, err := scs.Create()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seen[snap.Sid] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	created, borrowed := scs.Counters()
	if created+borrowed != requests {
		t.Fatalf("counters %d+%d != %d", created, borrowed, requests)
	}
	if borrowed == 0 {
		t.Fatal("64 concurrent requests should borrow at least once")
	}
	if int(created) != len(seen) && len(seen) > int(created) {
		t.Fatalf("distinct sids %d > created %d", len(seen), created)
	}
	// Every returned snapshot must be readable.
	for sid := range seen {
		if sid == 0 {
			t.Fatal("zero snapshot id returned")
		}
	}
}

func TestSCSBorrowDisabled(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	scs := NewSCS(e.bt)
	scs.AllowBorrow = false
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, borrowed, err := scs.Create(); err != nil || borrowed {
				t.Errorf("borrow disabled but borrowed=%v err=%v", borrowed, err)
			}
		}()
	}
	wg.Wait()
	created, borrowed := scs.Counters()
	if created != 8 || borrowed != 0 {
		t.Fatalf("want 8 created 0 borrowed, got %d/%d", created, borrowed)
	}
}

func TestSCSMinInterval(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	scs := NewSCS(e.bt)
	scs.MinInterval = time.Hour // effectively: only the first create happens
	s1, borrowed1, err := scs.Create()
	if err != nil || borrowed1 {
		t.Fatalf("first create: %v %v", err, borrowed1)
	}
	for i := 0; i < 5; i++ {
		s2, borrowed2, err := scs.Create()
		if err != nil || !borrowed2 || s2.Sid != s1.Sid {
			t.Fatalf("interval reuse: sid=%d borrowed=%v err=%v", s2.Sid, borrowed2, err)
		}
	}
}

func TestStrictSerializabilityOfBorrowedSnapshots(t *testing.T) {
	// A write that completes BEFORE a snapshot request begins must be
	// visible in the snapshot that request receives, even when borrowed.
	e := newEnv(t, 2, smallCfg())
	scs := NewSCS(e.bt)
	for round := 0; round < 30; round++ {
		k := key(round)
		if err := e.bt.Put(k, []byte("committed")); err != nil {
			t.Fatal(err)
		}
		// Concurrent snapshot requests, any of which may borrow.
		var wg sync.WaitGroup
		snaps := make([]Snapshot, 4)
		for i := range snaps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, _, err := scs.Create()
				if err != nil {
					t.Error(err)
					return
				}
				snaps[i] = s
			}(i)
		}
		wg.Wait()
		for _, s := range snaps {
			v, ok, err := e.bt.GetSnap(s, k)
			if err != nil || !ok || string(v) != "committed" {
				t.Fatalf("round %d: snapshot %d missing pre-request write: %q %v %v", round, s.Sid, v, ok, err)
			}
		}
	}
}

func TestGarbageCollection(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	const n = 120
	for i := 0; i < n; i++ {
		mustPut(t, e.bt, i)
	}
	// Take snapshots and rewrite everything each round to force CoW.
	for round := 0; round < 4; round++ {
		if _, err := e.bt.CreateSnapshot(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := e.bt.Put(key(i), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := e.bt.Stats(); s.CopyOnWr == 0 {
		t.Fatal("rounds of post-snapshot updates must copy-on-write")
	}
	// Keep only the most recent snapshot; everything older is collectible.
	freed, err := e.bt.RunGCKeepRecent(1)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("GC freed nothing despite discarded snapshots")
	}
	// The tip must be fully intact.
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(key(i))
		if err != nil || !ok || string(v) != "r3" {
			t.Fatalf("key %d after GC: %q %v %v", i, v, ok, err)
		}
	}
	// Freed blocks are reused by subsequent allocations.
	allocsBefore, _ := e.al.Stats()
	for i := n; i < n+40; i++ {
		mustPut(t, e.bt, i)
	}
	allocsAfter, _ := e.al.Stats()
	if allocsAfter == allocsBefore {
		t.Log("no new allocations (fanout absorbed inserts); fine")
	}
	// Second GC run right away finds nothing new at the same watermark.
	freed2, err := e.bt.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if freed2 != 0 {
		t.Fatalf("idempotent re-collect freed %d", freed2)
	}
}

// TestGCTwoTreesConcurrently: the one-collector-at-a-time gate belongs to a
// handle, so collectors of different trees never refuse each other (it used
// to be package-global and did).
func TestGCTwoTreesConcurrently(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	bt2, err := Create(e.c, e.al, 1, e.nodes[0], e.bt.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustPut(t, e.bt, i)
		mustPut(t, bt2, i)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, bt := range []*BTree{e.bt, bt2} {
		wg.Add(1)
		go func(i int, bt *BTree) {
			defer wg.Done()
			for round := 0; round < 200 && errs[i] == nil; round++ {
				_, errs[i] = bt.CollectGarbage()
			}
		}(i, bt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("tree %d: %v", i, err)
		}
	}
}

func TestGCWatermarkPersists(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	if err := e.bt.SetLowestSnapshot(7); err != nil {
		t.Fatal(err)
	}
	low, err := e.bt.LowestSnapshot()
	if err != nil || low != 7 {
		t.Fatalf("watermark: %d %v", low, err)
	}
	// Visible from another proxy bound to another memnode (replicated).
	bt2 := e.openProxy(t, e.nodes[1])
	low, err = bt2.LowestSnapshot()
	if err != nil || low != 7 {
		t.Fatalf("watermark at other replica: %d %v", low, err)
	}
}

func TestSnapshotWhileConcurrentUpdates(t *testing.T) {
	// Snapshot creation under a write storm must produce a consistent cut:
	// for every snapshot, a scan equals some prefix state of a single
	// writer's monotonic counter per key.
	e := newEnv(t, 3, smallCfg())
	const keys = 40
	for i := 0; i < keys; i++ {
		if err := e.bt.Put(key(i), encodeU64(0)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bt := e.openProxy(t, e.nodes[1])
		// One writer increments all keys in rounds: after round r every key
		// holds r. A consistent snapshot must see values {r, r+1} only
		// mid-round, and the partial order must respect key order within a
		// round (key i is bumped before key i+1).
		for r := uint64(1); ; r++ {
			for i := 0; i < keys; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := bt.Put(key(i), encodeU64(r)); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}
	}()

	for round := 0; round < 8; round++ {
		snap, err := e.bt.CreateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := e.bt.ScanSnapshot(snap, nil, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != keys {
			t.Fatalf("snapshot missing keys: %d", len(kvs))
		}
		// Values must be non-increasing by at most 1 across the key order:
		// v[0] ≥ v[1] ≥ ... and v[0]-v[last] ≤ 1.
		first := decodeU64(kvs[0].Val)
		last := decodeU64(kvs[keys-1].Val)
		prev := first
		for _, kv := range kvs {
			v := decodeU64(kv.Val)
			if v > prev {
				t.Fatalf("inconsistent cut: value rises within round: %d then %d", prev, v)
			}
			prev = v
		}
		if first-last > 1 {
			t.Fatalf("snapshot spans more than one round: first=%d last=%d", first, last)
		}
	}
	close(stop)
	wg.Wait()
}

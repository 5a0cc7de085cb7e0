package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

func testCfg(machines int) Config {
	return Config{
		Machines: machines,
		Tree: core.Config{
			NodeSize:        512,
			MaxLeafKeys:     8,
			MaxInnerKeys:    8,
			DirtyTraversals: true,
		},
	}
}

func TestCreateAndUseTree(t *testing.T) {
	cl := New(testCfg(3))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	bt := cl.Proxy(1).MustTree(0)
	for i := 0; i < 50; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Another proxy sees the data.
	bt2 := cl.Proxy(2).MustTree(0)
	v, ok, err := bt2.Get([]byte("k007"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("cross-proxy read: %q %v %v", v, ok, err)
	}
}

func TestSnapshotServiceRPC(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	bt := cl.Proxy(1).MustTree(0)
	if err := bt.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	snap, borrowed, err := cl.Proxy(1).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if borrowed {
		t.Fatal("first snapshot cannot be borrowed")
	}
	if err := bt.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := bt.GetSnap(snap, []byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("snapshot read via SCS: %q %v %v", v, ok, err)
	}
}

func TestSnapshotBorrowingUnderConcurrency(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	borrowedCount := 0
	var mu sync.Mutex
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, borrowed, err := cl.Proxy(i % 2).Snapshot(0)
			if err != nil {
				t.Error(err)
				return
			}
			if borrowed {
				mu.Lock()
				borrowedCount++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	created, borrowed := cl.SCS(0).Counters()
	if created+borrowed != 32 {
		t.Fatalf("SCS counters %d+%d != 32", created, borrowed)
	}
	if borrowedCount != int(borrowed) {
		t.Fatalf("borrow flags disagree: %d vs %d", borrowedCount, borrowed)
	}
}

func TestMissingSCS(t *testing.T) {
	cl := New(testCfg(1))
	if _, _, err := cl.Proxy(0).Snapshot(7); err == nil {
		t.Fatal("snapshot of unknown tree must fail")
	}
}

func TestGCThroughCluster(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	bt := cl.Proxy(0).MustTree(0)
	for i := 0; i < 100; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 3; round++ {
		if _, _, err := cl.Proxy(0).Snapshot(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := bt.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	freed, err := cl.RunGC(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("GC freed nothing")
	}
	v, ok, _ := bt.Get([]byte("k050"))
	if !ok || string(v) != "v3" {
		t.Fatalf("tip damaged by GC: %q %v", v, ok)
	}
}

func TestCrashAndRecoverMachine(t *testing.T) {
	cfg := testCfg(3)
	cfg.Replicate = true
	cl := New(cfg)
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	bt := cl.Proxy(0).MustTree(0)
	const n = 120
	for i := 0; i < n; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Crash machine 1's memnode and promote its backup.
	cl.CrashMachine(1)
	if err := cl.RecoverMachine(1); err != nil {
		t.Fatal(err)
	}
	// Every key is still readable (some leaves lived on memnode 1).
	for i := 0; i < n; i++ {
		v, ok, err := bt.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("key %d after fail-over: %q %v %v", i, v, ok, err)
		}
	}
	// And writes keep working.
	if err := bt.Put([]byte("post-failover"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleFaultPreparedTxnDecided: a prepared two-phase transaction must
// survive two cascading memnode faults and still reach its decision.
//
// A coordinator prepares at memnodes 0 and 2, gets both yes votes, commits
// at node 2, and dies. Then machine 1 — the host mirroring node 0, including
// node 0's in-flight prepare — crashes and is promoted. Then machine 0
// crashes, so its replacement is built from the promoted node's freshly
// seeded mirror. The prepare reaches that mirror only because fail-over
// re-seeds in-flight prepares through SnapshotStateReq; without it, the
// recovery sweep would either strand the transaction or lose node 0's
// already-decided write.
func TestDoubleFaultPreparedTxnDecided(t *testing.T) {
	cfg := testCfg(3)
	cfg.Replicate = true
	cl := New(cfg)
	defer cl.Close()
	// Keep the background sweep away from the in-doubt transaction until
	// both faults have landed.
	cl.Recovery().SetMinAge(time.Hour)

	const txid = 4242
	const addr = sinfonia.Addr(1 << 40)
	parts := []sinfonia.NodeID{0, 2}
	for _, node := range parts {
		_, err := cl.Transport().Call(node, &sinfonia.PrepareReq{
			Txid: txid, Participants: parts,
			Writes: []sinfonia.WriteItem{{Node: node, Addr: addr, Data: []byte("decided")}},
		})
		if err != nil {
			t.Fatalf("prepare at %d: %v", node, err)
		}
	}
	// The coordinator decided commit, reached node 2, and died.
	if _, err := cl.Transport().Call(sinfonia.NodeID(2), &sinfonia.CommitReq{Txid: txid}); err != nil {
		t.Fatal(err)
	}

	// Fault 1: the host mirroring node 0 dies and is promoted. The
	// replacement takes over backup duty for node 0 — committed items AND
	// the in-flight prepare.
	cl.CrashMachine(1)
	if err := cl.RecoverMachine(1); err != nil {
		t.Fatal(err)
	}
	// Fault 2: node 0 itself dies; its replacement is built from the
	// mirror seeded moments ago.
	cl.CrashMachine(0)
	if err := cl.RecoverMachine(0); err != nil {
		t.Fatal(err)
	}

	cl.Recovery().SetMinAge(0)
	committed, aborted, err := cl.Recovery().SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("double-fault sweep: committed=%d aborted=%d, want 1/0", committed, aborted)
	}
	// Atomicity held: both participants carry the decided write.
	for _, node := range parts {
		r, err := cl.Proxy(0).Client.Read(sinfonia.Ptr{Node: node, Addr: addr})
		if err != nil || !r.Exists || string(r.Data) != "decided" {
			t.Fatalf("node %d lost the decided write after double fault: %+v %v", node, r, err)
		}
	}
}

// TestDoubleFaultRepromotion: crashing and promoting the same memnode twice
// in a row must keep an inherited prepare resolvable — the backup chain
// (mirror retention plus the promoted node's re-mirror of inherited
// prepares) has to survive repeated promotion cycles of one identity.
func TestDoubleFaultRepromotion(t *testing.T) {
	cfg := testCfg(3)
	cfg.Replicate = true
	cl := New(cfg)
	defer cl.Close()
	cl.Recovery().SetMinAge(time.Hour)

	const txid = 5151
	const addr = sinfonia.Addr(1 << 41)
	parts := []sinfonia.NodeID{0, 2}
	for _, node := range parts {
		_, err := cl.Transport().Call(node, &sinfonia.PrepareReq{
			Txid: txid, Participants: parts,
			Writes: []sinfonia.WriteItem{{Node: node, Addr: addr, Data: []byte("again")}},
		})
		if err != nil {
			t.Fatalf("prepare at %d: %v", node, err)
		}
	}
	if _, err := cl.Transport().Call(sinfonia.NodeID(2), &sinfonia.CommitReq{Txid: txid}); err != nil {
		t.Fatal(err)
	}

	// Crash node 0 and promote it — twice in a row. The second promotion
	// depends on the first one's re-mirror of the inherited prepare.
	for round := 0; round < 2; round++ {
		cl.CrashMachine(0)
		if err := cl.RecoverMachine(0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	cl.Recovery().SetMinAge(0)
	committed, aborted, err := cl.Recovery().SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("re-promotion sweep: committed=%d aborted=%d, want 1/0", committed, aborted)
	}
	for _, node := range parts {
		r, err := cl.Proxy(0).Client.Read(sinfonia.Ptr{Node: node, Addr: addr})
		if err != nil || !r.Exists || string(r.Data) != "again" {
			t.Fatalf("node %d lost the write after re-promotion: %+v %v", node, r, err)
		}
	}
}

func TestRecoverWithoutReplicationFails(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.RecoverMachine(0); err == nil {
		t.Fatal("recovery must require replication")
	}
}

func TestMemnodeStats(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	bt := cl.Proxy(0).MustTree(0)
	for i := 0; i < 30; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.MemnodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d memnodes", len(stats))
	}
	totalItems := 0
	for _, s := range stats {
		totalItems += s.Items
	}
	if totalItems == 0 {
		t.Fatal("no items on any memnode")
	}
}

func TestTwoTrees(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTree(1); err != nil {
		t.Fatal(err)
	}
	a := cl.Proxy(0).MustTree(0)
	b := cl.Proxy(0).MustTree(1)
	if err := a.Put([]byte("k"), []byte("tree0")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put([]byte("k"), []byte("tree1")); err != nil {
		t.Fatal(err)
	}
	va, _, _ := a.Get([]byte("k"))
	vb, _, _ := b.Get([]byte("k"))
	if string(va) != "tree0" || string(vb) != "tree1" {
		t.Fatalf("trees bleed: %q %q", va, vb)
	}
}

func TestRecoveryCoordinatorThroughCluster(t *testing.T) {
	cl := New(testCfg(2))
	if err := cl.CreateTree(0); err != nil {
		t.Fatal(err)
	}
	bt := cl.Proxy(0).MustTree(0)
	if err := bt.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rc := cl.Recovery()
	rc.SetMinAge(0)
	committed, aborted, err := rc.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 0 || aborted != 0 {
		t.Fatalf("healthy cluster had orphans: %d/%d", committed, aborted)
	}
}

// TestCloseWaitsForRecovery: the recovery loop sleeps on the netsim clock,
// and so does every call its sweep makes, so under a virtual clock it
// advances time by itself. Close returns only once that loop has exited:
// a sweep still in flight when Close is called finishes first, and after
// Close nothing advances the clock any more.
func TestCloseWaitsForRecovery(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	cfg := testCfg(2)
	cfg.OneWayLatency = 50 * time.Microsecond // each call of a sweep sleeps
	cl := New(cfg)
	// Hold the first sweep inside its call to memnode 0.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	mn := cl.Memnode(0)
	cl.Transport().Bind(0, netsim.HandlerFunc(func(req any) (any, error) {
		if _, ok := req.(*sinfonia.InDoubtReq); ok {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return mn.HandleRPC(req)
	}))
	<-entered

	closedAt := make(chan time.Time, 1)
	go func() {
		cl.Close()
		closedAt <- v.Now()
	}()
	var at time.Time
	select {
	case at = <-closedAt:
		// Close returned with the sweep still held; it must not have.
	//lint:ignore detcheck the virtual clock stands still while the sweep is held, so only real time can bound the wait for Close
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if at.IsZero() {
		at = <-closedAt
	}
	//lint:ignore detcheck gives a recovery loop that outlived Close real time to move the virtual clock
	time.Sleep(time.Millisecond)
	if now := v.Now(); !now.Equal(at) {
		t.Fatalf("the clock moved %v after Close returned", now.Sub(at))
	}
}

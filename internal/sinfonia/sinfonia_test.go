package sinfonia

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"minuet/internal/netsim"
)

// newCluster builds n memnodes bound to a zero-latency local transport.
func newCluster(n int) (*netsim.Local, *Client, []*Memnode) {
	tr := netsim.NewLocal(0)
	nodes := make([]NodeID, n)
	mns := make([]*Memnode, n)
	for i := 0; i < n; i++ {
		id := NodeID(i)
		nodes[i] = id
		mns[i] = NewMemnode(id)
		tr.Bind(id, mns[i])
	}
	return tr, NewClient(tr, nodes), mns
}

func TestSingleNodeWriteRead(t *testing.T) {
	_, c, _ := newCluster(1)
	p := Ptr{Node: 0, Addr: 100}
	if err := c.Write(p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	r, err := c.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exists || string(r.Data) != "hello" || r.Version != 1 {
		t.Fatalf("got %+v", r)
	}
}

func TestReadMissing(t *testing.T) {
	_, c, _ := newCluster(1)
	r, err := c.Read(Ptr{Node: 0, Addr: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exists || r.Version != 0 || r.Data != nil {
		t.Fatalf("missing item should be zero-valued, got %+v", r)
	}
}

func TestVersionIncrementsPerWrite(t *testing.T) {
	_, c, _ := newCluster(1)
	p := Ptr{Node: 0, Addr: 8}
	for i := 1; i <= 5; i++ {
		if err := c.Write(p, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r, _ := c.Read(p)
		if r.Version != uint64(i) {
			t.Fatalf("after %d writes version=%d", i, r.Version)
		}
	}
}

func TestCompareVersionGatesWrite(t *testing.T) {
	_, c, _ := newCluster(1)
	p := Ptr{Node: 0, Addr: 64}
	if err := c.Write(p, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Correct version: write applies.
	_, err := c.Exec(&Minitx{
		Compares: []CompareItem{{Node: 0, Addr: 64, Version: 1}},
		Writes:   []WriteItem{{Node: 0, Addr: 64, Data: []byte("v2")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stale version: comparison fails, write must not apply.
	_, err = c.Exec(&Minitx{
		Compares: []CompareItem{{Node: 0, Addr: 64, Version: 1}},
		Writes:   []WriteItem{{Node: 0, Addr: 64, Data: []byte("v3")}},
	})
	var cf *CompareFailedError
	if !errors.As(err, &cf) || len(cf.Failed) != 1 || cf.Failed[0] != 0 {
		t.Fatalf("want CompareFailedError on index 0, got %v", err)
	}
	r, _ := c.Read(p)
	if string(r.Data) != "v2" {
		t.Fatalf("failed mtx must not write; data=%q", r.Data)
	}
}

func TestMissingItemComparesAsVersionZero(t *testing.T) {
	_, c, _ := newCluster(1)
	_, err := c.Exec(&Minitx{
		Compares: []CompareItem{{Node: 0, Addr: 999, Version: 0}},
		Writes:   []WriteItem{{Node: 0, Addr: 999, Data: []byte("x")}},
	})
	if err != nil {
		t.Fatalf("version-0 compare of missing item should pass: %v", err)
	}
}

func TestMultiNodeAtomicity(t *testing.T) {
	_, c, _ := newCluster(3)
	// Writes on three nodes, gated by a comparison that fails on node 2.
	if err := c.Write(Ptr{Node: 2, Addr: 50}, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Exec(&Minitx{
		Compares: []CompareItem{{Node: 2, Addr: 50, Version: 7}},
		Writes: []WriteItem{
			{Node: 0, Addr: 10, Data: []byte("a")},
			{Node: 1, Addr: 10, Data: []byte("b")},
			{Node: 2, Addr: 10, Data: []byte("c")},
		},
	})
	if !IsCompareFailed(err) {
		t.Fatalf("want compare failure, got %v", err)
	}
	for n := NodeID(0); n < 3; n++ {
		r, _ := c.Read(Ptr{Node: n, Addr: 10})
		if r.Exists {
			t.Fatalf("node %d: aborted 2PC leaked a write", n)
		}
	}
	// And with a passing comparison, all three apply.
	_, err = c.Exec(&Minitx{
		Compares: []CompareItem{{Node: 2, Addr: 50, Version: 1}},
		Writes: []WriteItem{
			{Node: 0, Addr: 10, Data: []byte("a")},
			{Node: 1, Addr: 10, Data: []byte("b")},
			{Node: 2, Addr: 10, Data: []byte("c")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := NodeID(0); n < 3; n++ {
		r, _ := c.Read(Ptr{Node: n, Addr: 10})
		if !r.Exists {
			t.Fatalf("node %d: committed 2PC lost a write", n)
		}
	}
}

func TestMultiNodeReads(t *testing.T) {
	_, c, _ := newCluster(2)
	if err := c.Write(Ptr{Node: 0, Addr: 8}, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(Ptr{Node: 1, Addr: 8}, []byte("one")); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(&Minitx{Reads: []ReadItem{
		{Node: 1, Addr: 8},
		{Node: 0, Addr: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Reads[0].Data) != "one" || string(res.Reads[1].Data) != "zero" {
		t.Fatalf("reads out of order: %q %q", res.Reads[0].Data, res.Reads[1].Data)
	}
}

func TestBusyRetryTransparent(t *testing.T) {
	tr, c, mns := newCluster(2)
	_ = tr
	// Manually prepare a transaction on node 0 to hold a lock, then issue a
	// conflicting single-node exec: it must block-retry until the lock is
	// released by commit.
	resp, err := mns[0].HandleRPC(&PrepareReq{
		Txid:   999,
		Writes: []WriteItem{{Node: 0, Addr: 77, Data: []byte("locked")}},
	})
	if err != nil || resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare failed: %v %+v", err, resp)
	}

	done := make(chan error, 1)
	go func() {
		err := c.Write(Ptr{Node: 0, Addr: 77}, []byte("after"))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("write should be blocked on the busy lock")
	default:
	}
	if _, err := mns[0].HandleRPC(&CommitReq{Txid: 999}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r, _ := c.Read(Ptr{Node: 0, Addr: 77})
	if string(r.Data) != "after" {
		t.Fatalf("retry lost: %q", r.Data)
	}
}

// TestBusyRetriesGiveUpWithinBudget: a write that meets a lock nobody will
// release (a prepare that is never resolved) keeps retrying on its Backoff
// until RetryBudget is spent, then reports ErrTooBusy. The budget passes on
// a virtual clock, so the test takes as long as the attempts do.
func TestBusyRetriesGiveUpWithinBudget(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	_, c, mns := newCluster(1)
	resp, err := mns[0].HandleRPC(&PrepareReq{
		Txid:   999,
		Writes: []WriteItem{{Node: 0, Addr: 77, Data: []byte("locked")}},
	})
	if err != nil || resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare failed: %v %+v", err, resp)
	}
	start := v.Now()
	done := make(chan error, 1)
	go func() { done <- c.Write(Ptr{Node: 0, Addr: 77}, []byte("never")) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTooBusy) {
			t.Fatalf("want ErrTooBusy, got %v", err)
		}
		if el := v.Now().Sub(start); el < RetryBudget {
			t.Fatalf("gave up after %v, inside the %v budget", el, RetryBudget)
		}
	case <-time.After(RetryBudget + time.Second):
		t.Fatalf("still retrying a busy lock after %v", RetryBudget+time.Second)
	}
}

// TestBlockingWaitIsBounded: a blocking minitransaction that meets a lock
// nobody releases waits out the memnode's own blockWait, on the netsim clock,
// and is then refused as busy like an ordinary one.
func TestBlockingWaitIsBounded(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	_, _, mns := newCluster(1)
	resp, err := mns[0].HandleRPC(&PrepareReq{
		Txid:   999,
		Writes: []WriteItem{{Node: 0, Addr: 77, Data: []byte("locked")}},
	})
	if err != nil || resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare failed: %v %+v", err, resp)
	}
	start := v.Now()
	resp, err = mns[0].HandleRPC(&ExecCommitReq{
		Txid:     1000,
		Writes:   []WriteItem{{Node: 0, Addr: 77, Data: []byte("blocked")}},
		Blocking: true,
	})
	if err != nil || resp.(*ExecResp).Vote != voteBusy {
		t.Fatalf("want a busy refusal, got %v %+v", err, resp)
	}
	if waited := v.Now().Sub(start); waited < blockWait || waited > blockWait+time.Millisecond {
		t.Fatalf("waited %v for the lock, want the %v bound", waited, blockWait)
	}
}

// busyLivelock runs one Write against a lock nobody releases, on a fresh
// virtual clock, from a client whose txid counter starts at seed. It returns
// the virtual time of every attempt, from the first, and how long the write
// retried before it gave up.
func busyLivelock(t *testing.T, seed uint64) (attempts []time.Duration, elapsed time.Duration) {
	t.Helper()
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	tr, _, mns := newCluster(1)
	if _, err := mns[0].HandleRPC(&PrepareReq{
		Txid:   1,
		Writes: []WriteItem{{Node: 0, Addr: 77, Data: []byte("locked")}},
	}); err != nil {
		t.Fatal(err)
	}
	start := v.Now()
	c := NewClient(tickTransport{tr, func() {
		attempts = append(attempts, v.Now().Sub(start))
	}}, []NodeID{0})
	c.txid.Store(seed)
	if err := c.Write(Ptr{Node: 0, Addr: 77}, []byte("never")); !errors.Is(err, ErrTooBusy) {
		t.Fatalf("want ErrTooBusy, got %v", err)
	}
	return attempts, v.Now().Sub(start)
}

// tickTransport calls tick before every call it forwards.
type tickTransport struct {
	netsim.Transport
	tick func()
}

func (a tickTransport) Call(to NodeID, req any) (any, error) {
	a.tick()
	return a.Transport.Call(to, req)
}

// TestRetryPathReplays: under a virtual clock a livelocked retry loop is a
// function of its client's seed. Two runs from clients seeded alike make the
// same attempts at the same times and give up after the same elapsed time;
// a client seeded differently does not wait in lockstep with them.
func TestRetryPathReplays(t *testing.T) {
	a, elA := busyLivelock(t, 5<<40)
	b, elB := busyLivelock(t, 5<<40)
	if len(a) != len(b) || elA != elB {
		t.Fatalf("runs seeded alike differ: %d attempts in %v vs %d in %v", len(a), elA, len(b), elB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs seeded alike differ at attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
	if elA < RetryBudget {
		t.Fatalf("gave up after %v, inside the %v budget", elA, RetryBudget)
	}
	other, _ := busyLivelock(t, 6<<40)
	same := 0
	for i := 1; i < min(len(a), len(other)); i++ {
		if a[i] == other[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("clients seeded differently retried at the same instant %d times", same)
	}
}

func TestBlockingMinitransactionWaits(t *testing.T) {
	_, c, mns := newCluster(1)
	resp, _ := mns[0].HandleRPC(&PrepareReq{
		Txid:   5,
		Writes: []WriteItem{{Node: 0, Addr: 9, Data: []byte("x")}},
	})
	if resp.(*ExecResp).Vote != voteOK {
		t.Fatal("prepare should succeed")
	}
	start := time.Now()
	go func() {
		time.Sleep(2 * time.Millisecond)
		mns[0].HandleRPC(&AbortReq{Txid: 5}) //nolint:errcheck
	}()
	_, err := c.Exec(&Minitx{
		Blocking: true,
		Writes:   []WriteItem{{Node: 0, Addr: 9, Data: []byte("y")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 1*time.Millisecond {
		t.Fatal("blocking minitransaction should have waited for the lock")
	}
}

func TestConcurrentCASLosesExactlyOne(t *testing.T) {
	_, c, _ := newCluster(1)
	p := Ptr{Node: 0, Addr: 13}
	if err := c.Write(p, []byte{0}); err != nil {
		t.Fatal(err)
	}
	// N goroutines attempt compare-version-1-and-write; exactly one wins.
	const n = 16
	var wg sync.WaitGroup
	wins := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Exec(&Minitx{
				Compares: []CompareItem{{Node: 0, Addr: 13, Version: 1}},
				Writes:   []WriteItem{{Node: 0, Addr: 13, Data: []byte{byte(i)}}},
			})
			if err == nil {
				wins <- i
			} else if !IsCompareFailed(err) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("CAS winners = %d, want 1", count)
	}
}

func TestReplicationAndPromotion(t *testing.T) {
	tr, c, mns := newCluster(2)
	// Node 0 replicates to node 1.
	mns[0].SetBackup(tr, 1)
	for i := 0; i < 10; i++ {
		p := Ptr{Node: 0, Addr: Addr(1000 + i)}
		if err := c.Write(p, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash node 0; promote its replica from node 1 and rebind.
	tr.SetDown(0, true)
	if _, err := c.Read(Ptr{Node: 0, Addr: 1000}); err == nil {
		t.Fatal("reads from a crashed memnode should fail")
	}
	promoted := mns[1].PromoteReplica(0)
	tr.Bind(0, promoted)
	tr.SetDown(0, false)
	for i := 0; i < 10; i++ {
		r, err := c.Read(Ptr{Node: 0, Addr: Addr(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("v%d", i)
		if !r.Exists || !bytes.Equal(r.Data, []byte(want)) {
			t.Fatalf("key %d lost after promotion: %+v", i, r)
		}
	}
}

func TestReplicaAppliesVersionGuard(t *testing.T) {
	tr, _, mns := newCluster(2)
	mns[0].SetBackup(tr, 1)
	// Deliver replica batches out of order directly. Every acknowledged
	// batch must be reflected immediately: parking batches until earlier
	// ones arrive would lose acked writes if the primary died before the
	// gap filled (the batch that fills it may never have been sent).
	apply := func(version uint64, data string) {
		t.Helper()
		rec := RedoRecord{Kind: recApply, Writes: []RedoWrite{{Addr: 7, Version: version, Data: []byte(data)}}}
		if _, err := mns[1].HandleRPC(&ReplicaRedoReq{From: 0, Rec: rec}); err != nil {
			t.Fatal(err)
		}
	}
	apply(2, "second")
	apply(3, "third")
	p := mns[1].PromoteReplica(0)
	it := p.items[7]
	if it == nil || string(it.data) != "third" || it.version != 3 {
		t.Fatalf("acked replica batches not applied before promotion: %+v", it)
	}
	// A late batch with an older version must not regress the mirror.
	apply(1, "first")
	p = mns[1].PromoteReplica(0)
	it = p.items[7]
	if it == nil || string(it.data) != "third" || it.version != 3 {
		t.Fatalf("stale replica batch regressed the mirror: %+v", it)
	}
}

func TestReplicaStagedSurvivesPromotion(t *testing.T) {
	tr, _, mns := newCluster(2)
	mns[0].SetBackup(tr, 1)
	// Prepare a distributed transaction at node 0; the prepare must be
	// mirrored to the backup before the vote, so a commit arriving after
	// fail-over still applies the writes.
	resp, err := mns[0].HandleRPC(&PrepareReq{
		Txid:         77,
		Writes:       []WriteItem{{Node: 0, Addr: 42, Data: []byte("prepared")}},
		Participants: []NodeID{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare vote: %+v", resp)
	}
	// Crash node 0 and promote. The staged transaction must survive, with
	// its write locks held.
	tr.SetDown(0, true)
	p := mns[1].PromoteReplica(0)
	tr.Bind(0, p)
	tr.SetDown(0, false)
	st, err := p.HandleRPC(&TxnStatusReq{Txid: 77})
	if err != nil {
		t.Fatal(err)
	}
	if st.(*TxnStatusResp).Status != TxnPrepared {
		t.Fatalf("staged txn lost in promotion: status %d", st.(*TxnStatusResp).Status)
	}
	// Phase two lands on the promoted node and applies the writes.
	if _, err := p.HandleRPC(&CommitReq{Txid: 77}); err != nil {
		t.Fatal(err)
	}
	it := p.items[42]
	if it == nil || string(it.data) != "prepared" {
		t.Fatalf("committed write missing after promoted commit: %+v", it)
	}
}

func TestScanAndStats(t *testing.T) {
	_, c, _ := newCluster(1)
	for i := 0; i < 5; i++ {
		if err := c.Write(Ptr{Node: 0, Addr: Addr(100 + 10*i)}, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	items, err := c.Scan(0, 100, 140, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("scan [100,140) want 4 items, got %d", len(items))
	}
	for _, it := range items {
		if len(it.Prefix) != 4 {
			t.Fatalf("prefix length %d", len(it.Prefix))
		}
	}
	st, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 5 || st.Commits != 5 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnreachableNode(t *testing.T) {
	tr, c, _ := newCluster(2)
	tr.SetDown(1, true)
	_, err := c.Read(Ptr{Node: 1, Addr: 1})
	if !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestEmptyMinitx(t *testing.T) {
	_, c, _ := newCluster(1)
	res, err := c.Exec(&Minitx{})
	if err != nil || len(res.Reads) != 0 {
		t.Fatalf("empty minitx: %v %+v", err, res)
	}
}

// TestImagesAreInstallOnce pins the invariant zero-copy reads rest on: a
// write installs a fresh slice and nothing writes into an installed one, so a
// ReadResult — over netsim.Local the stored slice itself — is unchanged by
// later writes to the address, and the memnode never shares the writer's
// request buffer. Under -race the concurrent reader also proves that handing
// out the stored slice makes no data race with overwrites.
func TestImagesAreInstallOnce(t *testing.T) {
	_, c, _ := newCluster(1)
	p := Ptr{Node: 0, Addr: 100}
	buf := []byte("first image")
	if err := c.Write(p, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXXXXX") // the request buffer stays the writer's to reuse
	first, err := c.Read(p)
	if err != nil || string(first.Data) != "first image" || first.Version != 1 {
		t.Fatalf("first read: %q v%d %v", first.Data, first.Version, err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a reader racing the overwrites sees whole images only
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, err := c.Read(p)
			if err != nil {
				t.Error(err)
				return
			}
			if s := string(r.Data); s != "first image" && s != "second image, longer" && s != "third" {
				t.Errorf("torn or foreign image %q at v%d", s, r.Version)
				return
			}
		}
	}()
	for _, img := range []string{"second image, longer", "third"} {
		if _, err := c.Exec(&Minitx{Writes: []WriteItem{{Node: p.Node, Addr: p.Addr, Data: []byte(img)}}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if string(first.Data) != "first image" {
		t.Fatalf("an earlier ReadResult changed under later writes: %q", first.Data)
	}
	last, err := c.Read(p)
	if err != nil || string(last.Data) != "third" || last.Version != 3 {
		t.Fatalf("last read: %q v%d %v", last.Data, last.Version, err)
	}
}

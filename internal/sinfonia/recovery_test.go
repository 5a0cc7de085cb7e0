package sinfonia

import (
	"runtime"
	"testing"
	"time"

	"minuet/internal/netsim"
)

// prepareAt stages a transaction directly at a memnode, simulating a
// coordinator that crashed mid-protocol.
func prepareAt(t *testing.T, mn *Memnode, txid uint64, participants []NodeID, w ...WriteItem) {
	t.Helper()
	resp, err := mn.HandleRPC(&PrepareReq{Txid: txid, Writes: w, Participants: participants})
	if err != nil || resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare: %v %+v", err, resp)
	}
}

func TestRecoveryCommitsFullyPreparedTxn(t *testing.T) {
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	// Coordinator prepared everywhere, then died before phase two.
	prepareAt(t, mns[0], 77, parts, WriteItem{Node: 0, Addr: 100, Data: []byte("a")})
	prepareAt(t, mns[1], 77, parts, WriteItem{Node: 1, Addr: 100, Data: []byte("b")})

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(0)
	committed, aborted, err := rc.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("committed=%d aborted=%d", committed, aborted)
	}
	// Sinfonia's rule: all participants voted yes → commit. The writes
	// must be applied and the locks released.
	for n := NodeID(0); n < 2; n++ {
		r, err := c.Read(Ptr{Node: n, Addr: 100})
		if err != nil || !r.Exists {
			t.Fatalf("node %d lost the recovered write: %+v %v", n, r, err)
		}
	}
	if err := c.Write(Ptr{Node: 0, Addr: 100}, []byte("after")); err != nil {
		t.Fatalf("locks not released: %v", err)
	}
}

func TestRecoveryAbortsPartiallyPreparedTxn(t *testing.T) {
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	// Only node 0 prepared; node 1 never saw the transaction (coordinator
	// died between its two prepare sends).
	prepareAt(t, mns[0], 88, parts, WriteItem{Node: 0, Addr: 200, Data: []byte("half")})

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(0)
	committed, aborted, err := rc.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d", committed, aborted)
	}
	// Nothing applied anywhere; locks released.
	r, _ := c.Read(Ptr{Node: 0, Addr: 200})
	if r.Exists {
		t.Fatal("aborted transaction leaked its write")
	}
	if err := c.Write(Ptr{Node: 0, Addr: 200}, []byte("x")); err != nil {
		t.Fatalf("locks not released: %v", err)
	}
}

func TestRecoveryFinishesHalfCommittedTxn(t *testing.T) {
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	prepareAt(t, mns[0], 99, parts, WriteItem{Node: 0, Addr: 300, Data: []byte("a")})
	prepareAt(t, mns[1], 99, parts, WriteItem{Node: 1, Addr: 300, Data: []byte("b")})
	// The coordinator committed at node 0, then died.
	if _, err := mns[0].HandleRPC(&CommitReq{Txid: 99}); err != nil {
		t.Fatal(err)
	}

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(0)
	committed, aborted, err := rc.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("committed=%d aborted=%d", committed, aborted)
	}
	// Atomicity restored: both nodes have the write.
	for n := NodeID(0); n < 2; n++ {
		r, _ := c.Read(Ptr{Node: n, Addr: 300})
		if !r.Exists {
			t.Fatalf("node %d missing the write after recovery", n)
		}
	}
}

func TestLateCommitAfterRecoveryAbortIsFenced(t *testing.T) {
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	prepareAt(t, mns[0], 111, parts, WriteItem{Node: 0, Addr: 400, Data: []byte("zombie")})
	// Node 1 never prepared → recovery aborts.
	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(0)
	if _, aborted, err := rc.SweepOnce(); err != nil || aborted != 1 {
		t.Fatalf("sweep: aborted=%d err=%v", aborted, err)
	}
	// The original (slow, presumed-dead) coordinator wakes up and sends its
	// commit. It must be refused.
	if _, err := mns[0].HandleRPC(&CommitReq{Txid: 111}); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Read(Ptr{Node: 0, Addr: 400})
	if r.Exists {
		t.Fatal("zombie commit applied after recovery abort")
	}
}

func TestRecoveryRespectsMinAge(t *testing.T) {
	tr, _, mns := newCluster(2)
	parts := []NodeID{0, 1}
	prepareAt(t, mns[0], 121, parts, WriteItem{Node: 0, Addr: 500, Data: []byte("young")})
	prepareAt(t, mns[1], 121, parts, WriteItem{Node: 1, Addr: 500, Data: []byte("young")})

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(time.Hour) // far above the txn's age
	committed, aborted, err := rc.SweepOnce()
	if err != nil || committed != 0 || aborted != 0 {
		t.Fatalf("young txn touched: %d/%d %v", committed, aborted, err)
	}
	// A healthy coordinator finishes it normally.
	for _, mn := range mns {
		if _, err := mn.HandleRPC(&CommitReq{Txid: 121}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoveryLeavesTxnWithUnreachableParticipant(t *testing.T) {
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	prepareAt(t, mns[0], 131, parts, WriteItem{Node: 0, Addr: 600, Data: []byte("x")})
	prepareAt(t, mns[1], 131, parts, WriteItem{Node: 1, Addr: 600, Data: []byte("y")})
	tr.SetDown(1, true)

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(0)
	if _, _, err := rc.SweepOnce(); err == nil {
		t.Fatal("sweep with an unreachable participant must report the stall")
	}
	// Node 0's transaction must remain prepared (not unilaterally aborted:
	// node 1 might have committed).
	resp, _ := mns[0].HandleRPC(&TxnStatusReq{Txid: 131})
	if resp.(*TxnStatusResp).Status != TxnPrepared {
		t.Fatalf("status %d, want prepared", resp.(*TxnStatusResp).Status)
	}
	// Once the participant returns, the next sweep resolves it.
	tr.SetDown(1, false)
	committed, _, err := rc.SweepOnce()
	if err != nil || committed != 1 {
		t.Fatalf("post-recovery sweep: %d %v", committed, err)
	}
	r, _ := c.Read(Ptr{Node: 1, Addr: 600})
	if !r.Exists {
		t.Fatal("write lost")
	}
}

func TestRecoveryBackgroundLoop(t *testing.T) {
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	prepareAt(t, mns[0], 141, parts, WriteItem{Node: 0, Addr: 700, Data: []byte("bg")})
	prepareAt(t, mns[1], 141, parts, WriteItem{Node: 1, Addr: 700, Data: []byte("bg")})

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		rc.Run(2*time.Millisecond, stop)
		close(done)
	}()
	// The loop should resolve the orphan within a few intervals.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, _ := c.Read(Ptr{Node: 0, Addr: 700})
		if r.Exists {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background recovery never resolved the orphan")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-done
}

// TestRecoveryRunsOnTheNetsimClock: the sweep cadence and the in-doubt age
// both read the netsim clock, so under a virtual one an orphan older than
// MinAge is resolved only once a whole interval has passed, and Run still
// returns promptly when stop closes.
func TestRecoveryRunsOnTheNetsimClock(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	tr, c, mns := newCluster(2)
	parts := []NodeID{0, 1}
	prepareAt(t, mns[0], 151, parts, WriteItem{Node: 0, Addr: 800, Data: []byte("v")})
	prepareAt(t, mns[1], 151, parts, WriteItem{Node: 1, Addr: 800, Data: []byte("v")})

	rc := NewRecoveryCoordinator(tr, parts)
	rc.SetMinAge(30 * time.Second)
	start := v.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		rc.Run(time.Minute, stop)
		close(done)
	}()
	watchdog := time.After(5 * time.Second)
	for {
		// Ask the memnode, not a client: a client read would meet the
		// orphan's lock and spend its own retry budget on the same clock.
		resp, err := mns[0].HandleRPC(&TxnStatusReq{Txid: 151})
		if err != nil {
			t.Fatal(err)
		}
		if resp.(*TxnStatusResp).Status == TxnCommitted {
			break
		}
		select {
		case <-watchdog:
			t.Fatal("background recovery never resolved the orphan")
		default:
			runtime.Gosched()
		}
	}
	if el := v.Now().Sub(start); el < time.Minute {
		t.Fatalf("orphan resolved after %v of a one-minute interval", el)
	}
	if r, err := c.Read(Ptr{Node: 0, Addr: 800}); err != nil || !r.Exists {
		t.Fatalf("recovered write missing: %+v %v", r, err)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run kept going after stop closed")
	}
}

// TestStaleStagedMirrorNotResurrected: stage/seed messages that race a
// transaction's resolve must not re-install the prepare in a backup's
// mirror, and the resolution survives promotion — a resurrected stale
// prepare would let recovery re-commit old writes over newer data.
func TestStaleStagedMirrorNotResurrected(t *testing.T) {
	b := NewMemnode(1)
	parts := []NodeID{0, 1}
	stage := func(txid uint64) RedoRecord {
		return RedoRecord{
			Kind: recStage, Txid: txid,
			Writes: []WriteItem{{Addr: 900, Data: []byte("stale")}},
			Locks:  []Addr{900}, Participants: parts,
		}
	}
	mustAck := func(rec RedoRecord) {
		t.Helper()
		if _, err := b.HandleRPC(&ReplicaRedoReq{From: 0, Rec: rec}); err != nil {
			t.Fatal(err)
		}
	}
	mustAck(stage(202))
	mustAck(RedoRecord{Kind: recResolve, Txid: 202, Flag: true})
	// A delayed duplicate stage (e.g. a promoted node's re-mirror racing
	// the resolve) arrives after resolution.
	mustAck(stage(202))
	// A full-state seed carrying the same stale prepare arrives too.
	b.SeedReplica(0, &SnapshotStateResp{Records: []RedoRecord{stage(202)}})

	nm := b.PromoteReplica(0)
	resp, err := nm.HandleRPC(&TxnStatusReq{Txid: 202})
	if err != nil {
		t.Fatal(err)
	}
	// Not resurrected as prepared, and the abort outcome crossed promotion
	// so a late commit stays fenced.
	if got := resp.(*TxnStatusResp).Status; got != TxnAborted {
		t.Fatalf("status after promotion = %d, want aborted", got)
	}
	if _, err := nm.HandleRPC(&CommitReq{Txid: 202}); err != nil {
		t.Fatal(err)
	}
	if r, _ := nm.HandleRPC(&ScanReq{MinAddr: 900, MaxAddr: 901, PrefixLen: 8}); len(r.(*ScanResp).Items) != 0 {
		t.Fatal("late commit applied a resurrected stale prepare")
	}
	// Committed resolutions are remembered the same way: a staged apply
	// fences later stage messages for its transaction.
	mustAck(stage(303))
	mustAck(RedoRecord{Kind: recApply, Txid: 303, Flag: true, Writes: []WriteItem{{Addr: 900, Version: 1, Data: []byte("v")}}})
	mustAck(stage(303))
	nm2 := b.PromoteReplica(0)
	resp, _ = nm2.HandleRPC(&TxnStatusReq{Txid: 303})
	if got := resp.(*TxnStatusResp).Status; got != TxnCommitted {
		t.Fatalf("status of committed txn after promotion = %d, want committed", got)
	}
}

func TestOutcomeLogEviction(t *testing.T) {
	o := newOutcomeLog(3)
	for i := uint64(1); i <= 5; i++ {
		o.record(i, TxnCommitted)
	}
	if _, ok := o.get(1); ok {
		t.Fatal("oldest outcome not evicted")
	}
	if _, ok := o.get(2); ok {
		t.Fatal("second-oldest outcome not evicted")
	}
	for i := uint64(3); i <= 5; i++ {
		if s, ok := o.get(i); !ok || s != TxnCommitted {
			t.Fatalf("outcome %d lost", i)
		}
	}
	// Re-recording does not duplicate order entries.
	o.record(4, TxnAborted)
	if s, _ := o.get(4); s != TxnAborted {
		t.Fatal("re-record ignored")
	}
}

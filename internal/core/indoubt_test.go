package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"minuet/internal/alloc"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

// errInjected is the transport failure the in-doubt tests inject.
var errInjected = errors.New("injected: reply lost")

// faultyNode wraps a memnode's handler. Armed, it fails every CommitReq
// without delivering it (failCommit), or executes one write-carrying
// ExecCommitReq and then replaces its reply with an error (loseReply).
type faultyNode struct {
	h          netsim.Handler
	failCommit atomic.Bool
	loseReply  atomic.Bool
	failed     atomic.Int64
}

func (f *faultyNode) HandleRPC(req any) (any, error) {
	switch r := req.(type) {
	case *sinfonia.CommitReq:
		if f.failCommit.Load() {
			f.failed.Add(1)
			return nil, errInjected
		}
	case *sinfonia.ExecCommitReq:
		if len(r.Writes) > 0 && f.loseReply.CompareAndSwap(true, false) {
			_, _ = f.h.HandleRPC(req)
			f.failed.Add(1)
			return nil, errInjected
		}
	}
	return f.h.HandleRPC(req)
}

// newFaultyEnv is newEnv with every memnode behind a faultyNode.
func newFaultyEnv(t *testing.T, numNodes int) (*testEnv, []*faultyNode) {
	t.Helper()
	tr := netsim.NewLocal(0)
	nodes := make([]sinfonia.NodeID, numNodes)
	faults := make([]*faultyNode, numNodes)
	for i := range nodes {
		nodes[i] = sinfonia.NodeID(i)
		faults[i] = &faultyNode{h: sinfonia.NewMemnode(nodes[i])}
		tr.Bind(nodes[i], faults[i])
	}
	c := sinfonia.NewClient(tr, nodes)
	cfg := smallCfg()
	al := alloc.New(c, cfg.NodeSize, 16)
	bt, err := Create(c, al, 0, nodes[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustPut(t, bt, i)
	}
	// After a snapshot every put copies its leaf into a fresh block.
	if _, err := bt.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	return &testEnv{tr: tr, c: c, al: al, bt: bt, nodes: nodes}, faults
}

// TestTwoPhaseCommitWithLostCommitSendsCommits: once every participant has
// voted yes the outcome is commit, even if all of the coordinator's commit
// sends to one participant fail. The put succeeds, none of its blocks is
// freed, and the recovery coordinator finishes the participant the sends
// missed.
func TestTwoPhaseCommitWithLostCommitSendsCommits(t *testing.T) {
	e, faults := newFaultyEnv(t, 2)
	faults[1].failCommit.Store(true)
	_, freesBefore := e.al.Stats()
	in := -1
	for i := 0; i < 40 && in < 0; i++ {
		// Copy-on-write puts, one leaf each, until one spans both memnodes.
		copies := e.bt.Stats().CopyOnWr
		if err := e.bt.Put(key(i), []byte("in doubt")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if faults[1].failed.Load() > 0 {
			in = i
			if e.bt.Stats().CopyOnWr == copies {
				t.Fatal("the in-doubt put copied no node")
			}
		}
	}
	if in < 0 {
		t.Fatal("no put spanned both memnodes")
	}
	if n := faults[1].failed.Load(); n != 3 {
		t.Fatalf("%d commit sends failed, want 3", n)
	}
	if _, frees := e.al.Stats(); frees != freesBefore {
		t.Fatalf("a committed put freed %d block(s)", frees-freesBefore)
	}
	faults[1].failCommit.Store(false)
	rc := sinfonia.NewRecoveryCoordinator(e.tr, e.nodes)
	rc.SetMinAge(0)
	if committed, aborted, err := rc.SweepOnce(); err != nil || committed != 1 || aborted != 0 {
		t.Fatalf("sweep: %d committed, %d aborted, %v", committed, aborted, err)
	}
	if v, ok, err := e.bt.Get(key(in)); err != nil || !ok || string(v) != "in doubt" {
		t.Fatalf("get after recovery: %q %v %v", v, ok, err)
	}
}

// TestLostCommitReplyKeepsBlocks: a one-memnode commit that applied but
// whose reply was lost is in doubt. Run returns the error and frees
// nothing, because the committed tree now points at the blocks the attempt
// reserved; the put's nodes read back.
func TestLostCommitReplyKeepsBlocks(t *testing.T) {
	e, faults := newFaultyEnv(t, 1)
	_, freesBefore := e.al.Stats()
	copies := e.bt.Stats().CopyOnWr
	faults[0].loseReply.Store(true)
	if err := e.bt.Put(key(7), []byte("applied")); !errors.Is(err, errInjected) {
		t.Fatalf("put with a lost reply: %v, want the injected error", err)
	}
	if faults[0].failed.Load() != 1 || e.bt.Stats().CopyOnWr == copies {
		t.Fatal("no copy-on-write commit lost its reply")
	}
	if _, frees := e.al.Stats(); frees != freesBefore {
		t.Fatalf("an in-doubt put freed %d block(s)", frees-freesBefore)
	}
	for i := 0; i < 40; i++ {
		want := string(val(i))
		if i == 7 {
			want = "applied"
		}
		if v, ok, err := e.bt.Get(key(i)); err != nil || !ok || string(v) != want {
			t.Fatalf("get %d: %q %v %v, want %q", i, v, ok, err, want)
		}
	}
}

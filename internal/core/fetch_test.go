package core

import (
	"testing"

	"minuet/internal/dyntx"
	"minuet/internal/netsim"
)

// TestSnapshotAndBranchReadTheirCellsTogether: creating a snapshot reads the
// tip id and tip root, and creating a branch reads the next-id counter and
// the source's catalog slot, each pair in one fetch; with the eager root
// read that is two round trips before the commit, not three.
func TestSnapshotAndBranchReadTheirCellsTogether(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		body func(bt *BTree, t *dyntx.Txn) error
	}{
		{"snapshot", smallCfg(), func(bt *BTree, t *dyntx.Txn) error {
			_, err := bt.CreateSnapshotTxn(t)
			return err
		}},
		{"branch", branchCfg(2), func(bt *BTree, t *dyntx.Txn) error {
			_, err := bt.CreateBranchTxn(t, initialSnapID)
			return err
		}},
	} {
		e := newEnv(t, 2, tc.cfg)
		for i := 0; i < 20; i++ {
			mustPut(t, e.bt, i)
		}
		tx := dyntx.New(e.c)
		if err := tc.body(e.bt, tx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tx.Roundtrips != 2 {
			t.Fatalf("%s: %d round trips before the commit, want 2", tc.name, tx.Roundtrips)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", tc.name, err)
		}
	}
}

// TestBatchAfterAnotherProxysSnapshot: a batch whose leaves sit on one
// memnode reads them with one fetch that piggy-backs validation of the tip
// the proxy has cached. When another proxy has taken a snapshot meanwhile,
// that fetch fails validation; the batch must report it as such, so that
// the retry drops the stale tip instead of retrying against it until the
// budget runs out. The budget would pass on the virtual clock.
func TestBatchAfterAnotherProxysSnapshot(t *testing.T) {
	defer netsim.SetClock(netsim.SetClock(new(netsim.Virtual)))
	e := newEnv(t, 1, smallCfg())
	for i := 0; i < 40; i++ {
		mustPut(t, e.bt, i)
	}
	other := e.openProxy(t, 0)
	if _, err := other.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	var ops []BatchOp
	for i := 0; i < 40; i += 3 {
		ops = append(ops, BatchOp{Key: key(i), Val: []byte("batched")})
	}
	before := e.bt.Stats().Retries
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatalf("batch after another proxy's snapshot: %v", err)
	}
	if r := e.bt.Stats().Retries - before; r > 2 {
		t.Fatalf("batch retried %d times", r)
	}
	for _, op := range ops {
		if v, ok, err := e.bt.Get(op.Key); err != nil || !ok || string(v) != "batched" {
			t.Fatalf("get %s: %q %v %v", op.Key, v, ok, err)
		}
	}
}

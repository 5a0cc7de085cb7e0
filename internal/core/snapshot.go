package core

import (
	"minuet/internal/catalog"
	"minuet/internal/dyntx"
)

// Snapshot identifies a read-only version of the tree: its snapshot id and
// the location of its root node. Holders of a Snapshot can read it forever
// (until garbage collection passes the id) without any validation traffic.
type Snapshot struct {
	Sid  uint64
	Root Ptr
}

// Tip returns the current tip snapshot id and root location: the tip cells
// of a linear tree, the mainline's writable version of a branching one
// (resolved through the catalog, which is the only place a branching tree
// keeps its roots).
func (bt *BTree) Tip() (Snapshot, error) {
	if bt.cfg.Branching {
		sid, err := bt.ResolveTip(initialSnapID)
		if err != nil {
			return Snapshot{}, err
		}
		e, err := bt.cat.Get(sid)
		if err != nil {
			return Snapshot{}, err
		}
		return Snapshot{Sid: sid, Root: e.Root}, nil
	}
	tip, err := bt.loadTip()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Sid: tip.sid, Root: tip.root}, nil
}

// CreateSnapshotTxn implements Fig 6: freeze the current tip as a read-only
// snapshot and start a new tip one id higher. The root is copied eagerly so
// the tip root stays at a fixed, catalogable location; the replicated tip id
// and root location are rewritten on every memnode. The transaction uses
// blocking minitransactions (§4.1) because this write-all is the one
// contention-prone operation in the system.
//
// On a branching tree creating a snapshot and creating a branch are the
// same operation (branch.go): the mainline tip is branched, which freezes
// it, and the frozen version is the snapshot. A tip that a concurrent
// branch froze after it was resolved returns ErrRetry, so the retry
// re-resolves instead of adding a sibling.
//
// The snapshot is not actually created until t commits.
func (bt *BTree) CreateSnapshotTxn(t *dyntx.Txn) (Snapshot, error) {
	if bt.cfg.Branching {
		sid, err := bt.ResolveTip(initialSnapID)
		if err != nil {
			return Snapshot{}, err
		}
		objs, err := t.Read(bt.cat.Ref(sid))
		if err != nil {
			return Snapshot{}, err
		}
		e, err := catalog.Decode(objs[0].Data)
		if err != nil || !e.Writable() {
			return Snapshot{}, dyntx.ErrRetry
		}
		if _, err := bt.CreateBranchTxn(t, sid); err != nil {
			return Snapshot{}, err
		}
		return Snapshot{Sid: sid, Root: e.Root}, nil
	}
	t.Blocking = true

	tip, err := t.Read(bt.refTipID(), bt.refTipRoot())
	if err != nil {
		return Snapshot{}, err
	}
	sid := decodeU64(tip[0].Data)
	loc := decodePtr(tip[1].Data)
	newTip := sid + 1

	oldRoot, _, err := bt.loadNode(t, loc, loadRead)
	if err != nil {
		return Snapshot{}, err
	}

	newRootPtr, err := bt.allocNode(t)
	if err != nil {
		return Snapshot{}, err
	}
	cp := oldRoot.materialize()
	cp.Created = newTip
	cp.Copied = NoSnap
	bt.writeNewNode(t, newRootPtr, cp)

	old := oldRoot.materialize()
	old.Copied = newTip
	t.Write(refNode(loc), old.encode()) // loc is in the read set

	t.Write(bt.refTipID(), encodeU64(newTip))
	t.Write(bt.refTipRoot(), encodePtr(newRootPtr))

	// Whatever the outcome, this proxy's tip cache and the old root's cache
	// entry are about to be stale.
	bt.invalidateTip()
	bt.cache.invalidate(loc)
	return Snapshot{Sid: sid, Root: loc}, nil
}

// CreateSnapshot runs CreateSnapshotTxn in the optimistic retry loop.
// Applications normally go through the snapshot creation service (scs.go) so
// that concurrent requests are serialized and can borrow; this direct entry
// point is what the service itself uses.
func (bt *BTree) CreateSnapshot() (Snapshot, error) {
	var s Snapshot
	err := bt.run(func(t *dyntx.Txn) error {
		var e error
		s, e = bt.CreateSnapshotTxn(t)
		return e
	})
	return s, err
}

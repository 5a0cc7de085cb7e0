package core

import (
	"errors"
	"fmt"

	"minuet/internal/catalog"
	"minuet/internal/dyntx"
	"minuet/internal/space"
)

// Writable clones / branching versions (§5). Snapshot ids form a version
// tree recorded in the snapshot catalog; every leaf of the version tree is a
// writable tip, and interior vertices are read-only. Creating a snapshot and
// creating a branch are the same operation: branch the given version and
// write to the new leaf.
//
// Copy-on-write bookkeeping uses per-node redirect sets bounded by β: when
// marking a node copied would exceed the bound, a *discretionary copy* is
// materialized at a common ancestor so that ≤ β redirect entries cover every
// copy (the §5.2 invariant). Traversals follow the deepest redirect whose
// snapshot is an ancestor-or-self of the target version.

// ErrNotWritable is returned when writing to a snapshot that already has a
// branch (it is read-only). Use ResolveTip to follow the mainline.
var ErrNotWritable = errors.New("core: snapshot is read-only (has a branch)")

// ErrBranchLimit is returned when a snapshot already has β branches.
var ErrBranchLimit = errors.New("core: version-tree branching factor (β) exceeded")

// ErrNotBranching is returned by every operation that addresses a version by
// id or reads the snapshot catalog (PutAt, GetAt, RemoveAt, ScanAt,
// ApplyBatchAt, BatchTxnAt, CreateBranch, ResolveTip, ListVersions, ...) on a
// tree whose configuration has Branching disabled.
var ErrNotBranching = errors.New("core: tree is not in branching mode")

// requireBranching gates the entry points that need the snapshot catalog;
// version-addressed reads and writes are gated by resolve.
func (bt *BTree) requireBranching() error {
	if !bt.cfg.Branching {
		return ErrNotBranching
	}
	return nil
}

// CreateBranchTxn branches a new writable version off snapshot `from`
// (Fig 8 semantics): allocate and copy a root anchored in a fresh catalog
// entry, mark `from` read-only if this is its first branch, and advance the
// replicated next-snapshot-id counter. Like snapshot creation it commits
// with a blocking minitransaction across all memnodes.
func (bt *BTree) CreateBranchTxn(t *dyntx.Txn, from uint64) (Snapshot, error) {
	if err := bt.requireBranching(); err != nil {
		return Snapshot{}, err
	}
	t.Blocking = true

	objs, err := t.Read(bt.refNextSnap(), bt.cat.Ref(from))
	if err != nil {
		return Snapshot{}, err
	}
	newSid := decodeU64(objs[0].Data)
	if !objs[1].Exists {
		return Snapshot{}, fmt.Errorf("core: snapshot %d does not exist", from)
	}
	fe, err := catalog.Decode(objs[1].Data)
	if err != nil {
		return Snapshot{}, dyntx.ErrRetry
	}
	if fe.Writable() {
		fe.BranchID = newSid // first branch freezes `from`
	} else if int(fe.NumChildren) >= bt.cfg.Beta {
		return Snapshot{}, fmt.Errorf("%w: snapshot %d already has %d branches", ErrBranchLimit, from, fe.NumChildren)
	}
	fe.NumChildren++

	root, _, err := bt.loadNode(t, fe.Root, loadRead)
	if err != nil {
		return Snapshot{}, err
	}
	cp := root.materialize() // the new root starts as the old one's content
	newRootPtr, err := bt.allocNode(t)
	if err != nil {
		return Snapshot{}, err
	}
	cp.Created = newSid
	cp.Copied = NoSnap
	cp.Redirects = nil
	bt.writeNewNode(t, newRootPtr, cp)
	// The old root needs no redirect: roots are anchored by the catalog,
	// so no traversal ever reaches a root through a stale pointer that
	// must be forwarded across versions.

	ne := catalog.Entry{Sid: newSid, Root: newRootPtr, Parent: from, Depth: fe.Depth + 1}
	t.Write(bt.cat.Ref(from), catalog.Encode(fe))
	t.Write(bt.cat.Ref(newSid), catalog.Encode(ne))
	t.Write(bt.refNextSnap(), encodeU64(newSid+1))

	bt.cat.Invalidate(from)
	return Snapshot{Sid: newSid, Root: newRootPtr}, nil
}

// CreateBranch runs CreateBranchTxn in the optimistic retry loop.
func (bt *BTree) CreateBranch(from uint64) (Snapshot, error) {
	var s Snapshot
	err := bt.run(func(t *dyntx.Txn) error {
		var e error
		s, e = bt.CreateBranchTxn(t, from)
		return e
	})
	return s, err
}

// ResolveTip follows the mainline from sid: while the snapshot has a branch,
// move to its first branch (the paper's default retry rule, §5.1). The
// result is a writable tip at the time of inspection.
func (bt *BTree) ResolveTip(sid uint64) (uint64, error) {
	if err := bt.requireBranching(); err != nil {
		return 0, err
	}
	for hops := 0; hops < 1<<20; hops++ {
		e, err := bt.cat.Refresh(sid)
		if err != nil {
			return 0, err
		}
		if e.Writable() {
			return sid, nil
		}
		sid = e.BranchID
	}
	return 0, fmt.Errorf("core: mainline from %d did not terminate", sid)
}

// ListVersions returns the catalog entries of all versions, in id order.
// Intended for tooling and tests, not the data path.
func (bt *BTree) ListVersions() ([]catalog.Entry, error) {
	if err := bt.requireBranching(); err != nil {
		return nil, err
	}
	res, err := bt.c.Read(ctlPtr(bt.local, bt.idx, space.CtlNextSnapID))
	if err != nil {
		return nil, err
	}
	next := decodeU64(res.Data)
	out := make([]catalog.Entry, 0, next-1)
	for sid := uint64(initialSnapID); sid < next; sid++ {
		e, err := bt.cat.Refresh(sid)
		if err != nil {
			continue // ids may be sparse after aborted creations
		}
		out = append(out, e)
	}
	return out, nil
}

// markCopied records on the old node that its state now lives at copyPtr for
// snapshot sid. The linear format sets the copied-snapshot id (§4.2); the
// branching format inserts a redirect, keeping the set ≤ β by materializing
// discretionary copies at common ancestors when necessary (§5.2).
func (bt *BTree) markCopied(t *dyntx.Txn, e pathEntry, sid uint64, copyPtr Ptr) error {
	old := e.view.materialize()
	if bt.cfg.Branching {
		entries := append(old.Redirects, Redirect{Sid: sid, Ptr: copyPtr})
		packed, err := bt.packRedirects(t, e.view, old.Created, entries, e.ptr)
		if err != nil {
			return err
		}
		old.Redirects = packed
	} else {
		old.Copied = sid
	}
	bt.writeNodeBack(t, e, old)
	return nil
}

// packRedirects reduces entries to at most β redirects on a node created at
// snapshot x whose content is `content`, emitting discretionary copy nodes
// into t as needed. owner is the node being packed (discretionary copies are
// placed on its memnode).
func (bt *BTree) packRedirects(t *dyntx.Txn, content *nodeView, x uint64, entries []Redirect, owner Ptr) ([]Redirect, error) {
	for len(entries) > bt.cfg.Beta {
		// Group entries by the direct child of x their snapshot descends
		// through. The version tree's branching factor is ≤ β, so β+1
		// entries guarantee some child subtree holds ≥ 2 of them.
		groups := make(map[uint64][]Redirect)
		order := make([]uint64, 0, len(entries))
		for _, r := range entries {
			c, err := bt.cat.ChildToward(x, r.Sid)
			if err != nil {
				return nil, dyntx.ErrRetry // catalog raced; retry the op
			}
			if _, seen := groups[c]; !seen {
				order = append(order, c)
			}
			groups[c] = append(groups[c], r)
		}
		var members []Redirect
		for _, c := range order {
			if len(groups[c]) >= 2 && len(groups[c]) > len(members) {
				members = groups[c]
			}
		}
		if members == nil {
			return nil, fmt.Errorf("core: redirect set %d exceeds β=%d with no shared subtree (version tree overgrown)", len(entries), bt.cfg.Beta)
		}

		// Lowest common ancestor of the group.
		a := members[0].Sid
		for _, m := range members[1:] {
			var err error
			if a, err = bt.cat.LCA(a, m.Sid); err != nil {
				return nil, dyntx.ErrRetry
			}
		}

		var replacement Redirect
		if mi := redirectIndexOf(members, a); mi >= 0 {
			// The ancestor already has a materialized copy: push the other
			// entries down into it.
			others := append(append([]Redirect(nil), members[:mi]...), members[mi+1:]...)
			if err := bt.pushRedirects(t, members[mi].Ptr, others); err != nil {
				return nil, err
			}
			replacement = members[mi]
		} else {
			// Materialize a discretionary copy at the common ancestor: the
			// node's content was not modified between x and a, so the copy
			// carries x's content tagged Created=a.
			sub, err := bt.packRedirects(t, content, a, members, owner)
			if err != nil {
				return nil, err
			}
			dPtr, err := bt.allocNodeOn(t, owner.Node)
			if err != nil {
				return nil, err
			}
			d := content.materialize()
			d.Created = a
			d.Copied = NoSnap
			d.Redirects = sub
			bt.writeNewNode(t, dPtr, d)
			bt.discretion.Add(1)
			replacement = Redirect{Sid: a, Ptr: dPtr}
		}

		next := make([]Redirect, 0, len(entries)-len(members)+1)
		for _, r := range entries {
			if redirectIndexOf(members, r.Sid) < 0 {
				next = append(next, r)
			}
		}
		entries = append(next, replacement)
	}
	return entries, nil
}

// pushRedirects adds redirect entries to an existing committed node,
// re-packing its set if it overflows.
func (bt *BTree) pushRedirects(t *dyntx.Txn, p Ptr, rs []Redirect) error {
	n, ver, err := bt.loadNode(t, p, loadDirty)
	if err != nil {
		return err
	}
	nn := n.materialize()
	entries := append(append([]Redirect(nil), nn.Redirects...), rs...)
	packed, err := bt.packRedirects(t, n, n.Created, entries, p)
	if err != nil {
		return err
	}
	nn.Redirects = packed
	t.WriteValidated(refNode(p), nn.encode(), ver)
	bt.cache.invalidate(p)
	return nil
}

func redirectIndexOf(rs []Redirect, sid uint64) int {
	for i, r := range rs {
		if r.Sid == sid {
			return i
		}
	}
	return -1
}

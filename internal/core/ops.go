package core

import (
	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// sepInsert describes a separator to add to a parent after a child split.
type sepInsert struct {
	key   wire.Key
	right Ptr
}

// writeNodeBack emits the updated image of an existing node. The node was
// observed at e.version, so the write first joins it to the read set at that
// version (§3: "if the object is written later on, it will first be added to
// the read set"); for a node the attempt already holds — a leaf read
// transactionally, a node it wrote before — WriteValidated is a plain write.
// In legacy mode interior updates also bump the node's replicated
// sequence-table entry on every memnode — the cost dirty traversals
// eliminate.
func (bt *BTree) writeNodeBack(t *dyntx.Txn, e pathEntry, n *Node) {
	t.WriteValidated(refNode(e.ptr), n.encode(), e.version)
	if !n.IsLeaf() && !bt.cfg.DirtyTraversals {
		// Legacy mode: bump the node's replicated sequence number on every
		// memnode — the write-all that makes interior updates expensive in
		// the prior system (§3).
		t.Write(bt.refSeq(e.ptr), nil)
	}
	bt.cache.invalidate(e.ptr)
}

// writeNewNode emits a freshly allocated node. The write is blind: the
// allocator guarantees exclusive ownership of the address.
func (bt *BTree) writeNewNode(t *dyntx.Txn, p Ptr, n *Node) {
	t.Write(refNode(p), n.encode())
	if !n.IsLeaf() && !bt.cfg.DirtyTraversals {
		t.Write(bt.refSeq(p), nil)
	}
}

// splitNodeMany splits an over-full node image into as many parts as needed
// so that every part holds at most maxKeys keys, returning the parts in key
// order and the separators between them. A single-key update overfills a
// node by one (two parts); a batched update can overfill it by an entire
// batch, so the part count is unbounded. For leaves each separator is the
// first key of the part to its right; for interior nodes the separators move
// up to the parent.
func splitNodeMany(n *Node, maxKeys int) (parts []*Node, seps []wire.Key) {
	k := len(n.Keys)
	var m int // part count
	if n.IsLeaf() {
		m = (k + maxKeys - 1) / maxKeys
	} else {
		// m parts absorb m-1 separators: partition k-(m-1) keys.
		m = (k + 1 + maxKeys) / (maxKeys + 1)
	}
	if m < 2 {
		m = 2 // callers only split over-full nodes
	}
	parts = make([]*Node, 0, m)
	seps = make([]wire.Key, 0, m-1)
	start := 0
	low := n.Low
	for i := 0; i < m; i++ {
		r := m - i // parts still to emit
		avail := k - start
		if !n.IsLeaf() {
			avail -= r - 1 // keys that will become separators
		}
		size := (avail + r - 1) / r
		end := start + size
		p := &Node{Tree: n.Tree, Height: n.Height, Created: n.Created, Copied: NoSnap, Low: low, High: n.High}
		p.Keys = append([]wire.Key(nil), n.Keys[start:end]...)
		if n.IsLeaf() {
			p.Vals = append([][]byte(nil), n.Vals[start:end]...)
			if i < m-1 {
				sep := n.Keys[end]
				seps = append(seps, sep)
				p.High = wire.FenceAt(sep)
				low = wire.FenceAt(sep)
			}
			start = end
		} else {
			p.Kids = append([]Ptr(nil), n.Kids[start:end+1]...)
			if i < m-1 {
				sep := n.Keys[end]
				seps = append(seps, sep)
				p.High = wire.FenceAt(sep)
				low = wire.FenceAt(sep)
			}
			start = end + 1
		}
		parts = append(parts, p)
	}
	return parts, seps
}

// applyUpdate installs newContent as the updated image of path[level],
// performing copy-on-write when the node belongs to an earlier snapshot and
// splitting when it overflows, then propagates pointer changes to the
// parent. newContent must be private to the caller (a materialized or freshly
// built Node).
func (bt *BTree) applyUpdate(t *dyntx.Txn, tg *target, path []pathEntry, level int, newContent *Node) error {
	e, sid := path[level], tg.sid
	isLeaf := newContent.IsLeaf()
	inPlace := e.view.Created == sid

	maxKeys := bt.cfg.MaxLeafKeys
	if !isLeaf {
		maxKeys = bt.cfg.MaxInnerKeys
	}

	if len(newContent.Keys) <= maxKeys {
		if inPlace {
			bt.writeNodeBack(t, e, newContent)
			return nil
		}
		// Copy-on-write (Fig 4): write the new state at a fresh location
		// (same memnode, preserving placement), record the copy on the old
		// node, and repoint the parent.
		copyPtr, err := bt.allocNodeOn(t, e.ptr.Node)
		if err != nil {
			return err
		}
		newContent.Created = sid
		newContent.Copied = NoSnap
		newContent.Redirects = nil
		bt.writeNewNode(t, copyPtr, newContent)
		if err := bt.markCopied(t, e, sid, copyPtr); err != nil {
			return err
		}
		bt.copies.Add(1)
		return bt.replaceChild(t, tg, path, level, e.ptr, copyPtr, nil)
	}

	// Split. A single-key update produces two parts; a batched update may
	// overfill the node by a whole batch and produce many. All parts belong
	// to snapshot sid.
	parts, seps := splitNodeMany(newContent, maxKeys)
	for _, p := range parts {
		p.Created = sid
		p.Copied = NoSnap
		p.Redirects = nil
	}
	bt.splits.Add(int64(len(parts) - 1))

	var leftPtr Ptr
	var err error
	if inPlace {
		// The leftmost part overwrites the node in place; its key range
		// shrinks, so any concurrent traversal into the moved range fails
		// its fence check and retries.
		leftPtr = e.ptr
		bt.writeNodeBack(t, e, parts[0])
	} else {
		leftPtr, err = bt.allocNodeOn(t, e.ptr.Node)
		if err != nil {
			return err
		}
		bt.writeNewNode(t, leftPtr, parts[0])
		if err := bt.markCopied(t, e, sid, leftPtr); err != nil {
			return err
		}
		bt.copies.Add(1)
	}
	ins := make([]sepInsert, len(seps))
	for i, part := range parts[1:] {
		p, err := bt.allocNode(t)
		if err != nil {
			return err
		}
		bt.writeNewNode(t, p, part)
		ins[i] = sepInsert{key: seps[i], right: p}
	}
	return bt.replaceChild(t, tg, path, level, e.ptr, leftPtr, ins)
}

// replaceChild updates the parent of path[level] so that its child slot
// pointing at oldPtr points at newPtr, inserting any separators produced by
// a split. At the root it grows the tree (by as many levels as the
// separators require) and updates the (replicated) root location.
func (bt *BTree) replaceChild(t *dyntx.Txn, tg *target, path []pathEntry, level int, oldPtr, newPtr Ptr, ins []sepInsert) error {
	if level == 0 {
		root := path[0]
		if len(ins) == 0 {
			if newPtr == oldPtr {
				return nil
			}
			// The root's created-snapshot always equals the tip (it is
			// copied at snapshot/branch creation), so it is never CoW'd
			// here. Reaching this means the traversal used a stale root.
			bt.invalidateRoot(tg.sid)
			return dyntx.ErrRetry
		}
		return bt.growRoot(t, tg, root.view, newPtr, ins)
	}

	parent := path[level-1]
	e := path[level]
	i := parent.childIdx
	pw := parent.view.materialize()
	if i >= len(pw.Kids) || pw.Kids[i] != e.anchor {
		// The cached parent no longer matches the traversal; retry.
		bt.invalidateTraversal(parent.ptr, nil)
		return dyntx.ErrRetry
	}
	if len(ins) == 0 && pw.Kids[i] == newPtr {
		return nil
	}
	// Repoint the child slot. When the traversal reached the node through
	// redirects (anchor != the node's own location — e.g. a discretionary
	// copy, which no parent points at directly), this also repairs the
	// parent to reference the fresh copy, so this version's later
	// traversals skip the redirect hops. Other versions keep reaching their
	// copies through the untouched anchor node's redirect set.
	pw.Kids[i] = newPtr
	if len(ins) > 0 {
		keys := make([]wire.Key, 0, len(pw.Keys)+len(ins))
		keys = append(keys, pw.Keys[:i]...)
		for _, s := range ins {
			keys = append(keys, s.key)
		}
		keys = append(keys, pw.Keys[i:]...)
		kids := make([]Ptr, 0, len(pw.Kids)+len(ins))
		kids = append(kids, pw.Kids[:i+1]...)
		for _, s := range ins {
			kids = append(kids, s.right)
		}
		kids = append(kids, pw.Kids[i+1:]...)
		pw.Keys, pw.Kids = keys, kids
	}
	return bt.applyUpdate(t, tg, path, level-1, pw)
}

// growRoot grows the tree after a root split: newPtr plus the split's new
// right siblings become children of a freshly allocated root. A batched
// update can split the root into more parts than one interior node may
// hold, in which case whole levels are built bottom-up until a single root
// fits.
func (bt *BTree) growRoot(t *dyntx.Txn, tg *target, oldRoot *nodeView, newPtr Ptr, ins []sepInsert) error {
	sid := tg.sid
	keys := make([]wire.Key, 0, len(ins))
	kids := make([]Ptr, 0, len(ins)+1)
	kids = append(kids, newPtr)
	for _, s := range ins {
		keys = append(keys, s.key)
		kids = append(kids, s.right)
	}
	height := oldRoot.Height + 1
	for len(keys) > bt.cfg.MaxInnerKeys {
		// Build one full interior level over kids, then go around again.
		k := len(keys)
		m := (k + 1 + bt.cfg.MaxInnerKeys) / (bt.cfg.MaxInnerKeys + 1)
		upKeys := make([]wire.Key, 0, m-1)
		upKids := make([]Ptr, 0, m)
		start := 0
		for i := 0; i < m; i++ {
			r := m - i
			avail := k - start - (r - 1)
			size := (avail + r - 1) / r
			end := start + size
			low, high := wire.NegInf, wire.PosInf
			if start > 0 {
				low = wire.FenceAt(keys[start-1])
			}
			if i < m-1 {
				high = wire.FenceAt(keys[end])
			}
			p, err := bt.allocNode(t)
			if err != nil {
				return err
			}
			bt.writeNewNode(t, p, &Node{
				Tree: oldRoot.Tree, Height: height, Created: sid, Copied: NoSnap,
				Low: low, High: high,
				Keys: append([]wire.Key(nil), keys[start:end]...),
				Kids: append([]Ptr(nil), kids[start:end+1]...),
			})
			upKids = append(upKids, p)
			if i < m-1 {
				upKeys = append(upKeys, keys[end])
			}
			start = end + 1
		}
		keys, kids = upKeys, upKids
		height++
	}
	rootPtr, err := bt.allocNode(t)
	if err != nil {
		return err
	}
	bt.writeNewNode(t, rootPtr, &Node{
		Tree: oldRoot.Tree, Height: height, Created: sid, Copied: NoSnap,
		Low: wire.NegInf, High: wire.PosInf,
		Keys: keys, Kids: kids,
	})
	bt.setRoot(t, tg, rootPtr)
	return nil
}

package core

import (
	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// pathEntry records one node visited by a traversal, along with the item
// version observed (needed when the node is later written) and the child
// slot the traversal took. anchor is the location the parent's child slot
// actually holds; it differs from ptr when the traversal followed redirects
// (branching mode) to reach the node, e.g. into a discretionary copy that no
// parent points at directly.
type pathEntry struct {
	ptr      Ptr
	anchor   Ptr
	view     *nodeView
	version  uint64 // item version observed at the memnode (or via cache)
	childIdx int    // index of the child taken (interior nodes)
}

// pathBuf is room for the path of one descent: trees deeper than this spill
// to the heap, nothing more.
type pathBuf [6]pathEntry

// loadInner fetches an interior node, serving from the proxy cache when
// possible. In legacy mode (dirty traversals OFF) the node's replicated
// sequence-table entry is fetched alongside it and added to t's read set, so
// that commit validates the whole traversal path exactly as in Aguilera et
// al. — while replication keeps those validations local to the commit's
// memnode.
func (bt *BTree) loadInner(t *dyntx.Txn, p Ptr) (*nodeView, uint64, error) {
	if bt.cache != nil {
		if e, ok := bt.cache.get(p); ok {
			if !bt.cfg.DirtyTraversals {
				t.InjectRead(bt.refSeq(p), e.seqVer, nil, e.seqVer != 0)
			}
			return e.view, e.version, nil
		}
	}

	if bt.cfg.DirtyTraversals {
		obj, err := t.DirtyRead(refNode(p))
		if err != nil {
			return nil, 0, err
		}
		if !obj.Exists {
			return nil, 0, dyntx.ErrRetry
		}
		n, err := parseNode(obj.Data)
		if err != nil {
			return nil, 0, dyntx.ErrRetry
		}
		if bt.cache != nil && obj.Version > 0 && !n.IsLeaf() {
			bt.cache.put(p, cacheEntry{view: n, version: obj.Version})
		}
		return n, obj.Version, nil
	}

	// Legacy mode: fetch the node image and its seq-table entry (local
	// replica) in one minitransaction; the entry joins the read set.
	seqRef := bt.refSeq(p)
	// Read the seq entry at the node's owner, which also holds a replica;
	// this keeps the fetch a single-memnode, single-round-trip operation.
	seqRefAtOwner := dyntx.Ref{Ptr: Ptr{Node: p.Node, Addr: seqRef.Ptr.Addr}, Replicated: true}
	objs, err := t.DirtyReadMany([]dyntx.Ref{refNode(p), seqRefAtOwner})
	if err != nil {
		return nil, 0, err
	}
	if !objs[0].Exists {
		return nil, 0, dyntx.ErrRetry
	}
	n, err := parseNode(objs[0].Data)
	if err != nil {
		return nil, 0, dyntx.ErrRetry
	}
	seqVer := objs[1].Version
	if _, shadowed := t.PendingWrite(seqRef); !shadowed {
		// Don't validate a seq entry this transaction has itself written
		// (the shadowed read reports version 0, which is not the entry's
		// memnode version): the pending blind write supersedes it.
		t.InjectRead(seqRef, seqVer, nil, objs[1].Exists)
	}
	if bt.cache != nil && objs[0].Version > 0 && !n.IsLeaf() {
		bt.cache.put(p, cacheEntry{view: n, version: objs[0].Version, seqVer: seqVer})
	}
	return n, objs[0].Version, nil
}

// loadLeaf fetches a leaf node. Up-to-date operations (validate=true) read
// it transactionally — the read joins the read set and piggy-backs
// validation of the tip objects, making the common case a single round trip.
// Reads on read-only snapshots (validate=false) fetch dirtily and rely on
// fence keys and copied-snapshot checks alone (§4.2).
func (bt *BTree) loadLeaf(t *dyntx.Txn, p Ptr, validate bool) (*nodeView, uint64, error) {
	var obj dyntx.Obj
	var err error
	if validate {
		obj, err = t.Read(refNode(p))
	} else {
		obj, err = t.DirtyRead(refNode(p))
	}
	if err != nil {
		return nil, 0, err
	}
	if !obj.Exists {
		return nil, 0, dyntx.ErrRetry
	}
	n, err := parseNode(obj.Data)
	if err != nil {
		return nil, 0, dyntx.ErrRetry
	}
	return n, obj.Version, nil
}

// checkNode applies the version half of the per-node safety checks that make
// dirty traversals sound (callers add the fence check): the node must belong
// to snapshot sid's history and — in the linear format, where the caller has
// no redirects to follow — must not have been copied toward sid.
func (bt *BTree) checkNode(n *nodeView, sid uint64) bool {
	if bt.cfg.Branching {
		ok, err := bt.cat.IsAncestorOrSelf(n.Created, sid)
		return err == nil && ok
	}
	if n.Created > sid {
		return false // node from a later snapshot: stale pointer or reuse
	}
	// Once copied at or below sid the traversal should be at the copy (or a
	// copy of the copy); abort and retry — parents are already updated (§4.2).
	return n.Copied == NoSnap || n.Copied > sid
}

// bestRedirect returns the deepest (most specific) redirect of n whose
// snapshot is an ancestor-or-self of sid, if any (§5.2).
func (bt *BTree) bestRedirect(n *nodeView, sid uint64) (Ptr, bool, error) {
	best := -1
	var bestDepth uint32
	for i, r := range n.Redirects {
		ok, err := bt.cat.IsAncestorOrSelf(r.Sid, sid)
		if err != nil {
			return Ptr{}, false, err
		}
		if !ok {
			continue
		}
		e, err := bt.cat.Get(r.Sid)
		if err != nil {
			return Ptr{}, false, err
		}
		if best == -1 || e.Depth > bestDepth {
			best, bestDepth = i, e.Depth
		}
	}
	if best == -1 {
		return Ptr{}, false, nil
	}
	return n.Redirects[best].Ptr, true, nil
}

// loadNode fetches the node at p as version tg sees it: an interior node from
// the proxy cache or a dirty read, a leaf transactionally when tg validates.
// While the node carries a redirect whose snapshot is an ancestor-or-self of
// tg.sid it hops to that copy (§5.2; only the branching format writes
// redirects, so on a linear tree the first load returns). It reports where
// the node was finally found.
func (bt *BTree) loadNode(t *dyntx.Txn, tg *target, p Ptr, leaf bool) (Ptr, *nodeView, uint64, error) {
	for hops := 0; hops < 64; hops++ {
		var n *nodeView
		var ver uint64
		var err error
		if leaf {
			n, ver, err = bt.loadLeaf(t, p, tg.validate)
		} else {
			n, ver, err = bt.loadInner(t, p)
		}
		if err != nil {
			return Ptr{}, nil, 0, err
		}
		tp, ok, err := bt.bestRedirect(n, tg.sid)
		if err != nil {
			return Ptr{}, nil, 0, err
		}
		if !ok {
			return p, n, ver, nil
		}
		p, leaf = tp, n.IsLeaf()
	}
	return Ptr{}, nil, 0, dyntx.ErrRetry // redirect cycle: torn state, retry
}

// descend walks from tg's root toward the leaf responsible for k, stopping at
// height floor (0 = the leaf), following Fig 5: interior nodes are read
// dirtily (cache-first), fence keys and height are checked at every step, and
// only the leaf is read transactionally (when tg validates). It returns the
// visited path, deepest node last, appended to buf[:0] — callers pass a
// pathBuf of their own frame, so a descent of ordinary depth allocates no
// path. On any inconsistency it invalidates the relevant cache entries and
// returns dyntx.ErrRetry for the optimistic retry loop.
func (bt *BTree) descend(t *dyntx.Txn, tg *target, k wire.Key, floor uint8, buf *pathBuf) ([]pathEntry, error) {
	path := buf[:0]

	anchor := tg.root
	ptr, cur, ver, err := bt.loadNode(t, tg, anchor, false)
	if err != nil {
		return nil, err
	}
	// A Minuet tree always has at least two levels, so the root is interior;
	// a leaf here means a stale root pointer — the proxy's cached root
	// location for tg.sid is itself stale.
	if cur.IsLeaf() || !bt.checkNode(cur, tg.sid) || !cur.inRange(k) {
		bt.invalidateRoot(tg.sid)
		bt.invalidateTraversal(ptr, nil)
		return nil, dyntx.ErrRetry
	}
	path = append(path, pathEntry{ptr: ptr, anchor: anchor, view: cur, version: ver})

	for cur.Height > floor {
		i := cur.childIndex(k)
		path[len(path)-1].childIdx = i
		anchor = cur.kid(i) // what the parent's slot holds, pre-redirect
		ptr, next, ver, err := bt.loadNode(t, tg, anchor, cur.Height == 1)
		if err != nil {
			return nil, err
		}
		// Fatal-inconsistency checks (Fig 5 line 15 plus §4.2): height must
		// decrease by exactly one, and the child must pass fence/version
		// checks.
		if next.Height != cur.Height-1 || !bt.checkNode(next, tg.sid) || !next.inRange(k) {
			bt.invalidateTraversal(ptr, &path[len(path)-1])
			return nil, dyntx.ErrRetry
		}
		path = append(path, pathEntry{ptr: ptr, anchor: anchor, view: next, version: ver})
		cur = next
	}
	return path, nil
}

// leafFor returns the leaf of tg responsible for k.
func (bt *BTree) leafFor(t *dyntx.Txn, tg *target, k wire.Key) (*nodeView, error) {
	var buf pathBuf
	path, err := bt.descend(t, tg, k, 0, &buf)
	if err != nil {
		return nil, err
	}
	return path[len(path)-1].view, nil
}

// invalidateTraversal drops the cache entries that led to an inconsistent
// read: the offending node and the parent whose stale pointer produced it.
func (bt *BTree) invalidateTraversal(child Ptr, parent *pathEntry) {
	if bt.cache == nil {
		return
	}
	bt.cache.invalidate(child)
	if parent != nil {
		bt.cache.invalidate(parent.ptr)
	}
}

package core

import (
	"errors"

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
	version  uint64 // item version observed at the memnode or cache; 0 for the attempt's own write
	childIdx int    // index of the child taken (interior nodes)
}

// pathBuf is room for the path of one descent: trees deeper than this spill
// to the heap, nothing more.
type pathBuf [6]pathEntry

// loadMode says how loadNode fetches an image that the attempt does not hold.
type loadMode uint8

const (
	// loadInterior serves an interior node from the proxy cache, else reads
	// it dirtily and caches it. In legacy mode (dirty traversals OFF) the
	// node's replicated sequence-table entry is fetched alongside and joins
	// the read set, so that commit validates the whole traversal path as in
	// Aguilera et al. — while replication keeps those validations local to
	// the commit's memnode.
	loadInterior loadMode = iota
	// loadDirty reads the node dirtily: a leaf of a frozen version, which
	// fence keys and copied-snapshot checks alone make safe (§4.2), or a node
	// whose write-back validates it (WriteValidated).
	loadDirty
	// loadRead reads the node transactionally: it joins the read set and the
	// fetch piggy-backs validation of the tip objects, so an up-to-date leaf
	// costs a single round trip.
	loadRead
)

// loadNode is the one place a Ptr becomes a *nodeView. The lookup order is
// fixed: the image this attempt already holds (t.Held: its own pending write,
// then what its read set observed), then — for loadInterior — the proxy
// cache, then the memnode. An absent or unparseable image means a stale
// pointer, and the attempt retries. It returns the view and the item version
// that a later write-back validates against.
func (bt *BTree) loadNode(t *dyntx.Txn, p Ptr, how loadMode) (*nodeView, uint64, error) {
	ref := refNode(p)
	obj, held := t.Held(ref)
	var seqVer uint64 // legacy mode: the node's seq-table entry, 0 if never written
	if !held {
		interior := how == loadInterior
		if interior {
			if e, ok := bt.cache.get(p); ok {
				if !bt.cfg.DirtyTraversals {
					t.InjectRead(bt.refSeq(p), e.seqVer, nil, e.seqVer != 0)
				}
				return e.view, e.version, nil
			}
		}
		var objs []dyntx.Obj
		var err error
		switch {
		case how == loadRead:
			objs, err = t.Read(ref)
		case interior && !bt.cfg.DirtyTraversals:
			// Read the seq entry at the node's owner, which also holds a
			// replica; this keeps the fetch a single-memnode, single-round-
			// trip operation.
			seqAtOwner := dyntx.Ref{Ptr: Ptr{Node: p.Node, Addr: bt.refSeq(p).Ptr.Addr}, Replicated: true}
			if objs, err = t.DirtyRead(ref, seqAtOwner); err == nil {
				seqVer = objs[1].Version
			}
		default:
			objs, err = t.DirtyRead(ref)
		}
		if err != nil {
			return nil, 0, err
		}
		obj = objs[0]
	}
	if !obj.Exists {
		return nil, 0, dyntx.ErrRetry
	}
	n, err := parseNode(obj.Data)
	if err != nil {
		return nil, 0, dyntx.ErrRetry
	}
	if !held && how == loadInterior {
		if !bt.cfg.DirtyTraversals {
			t.InjectRead(bt.refSeq(p), seqVer, nil, seqVer != 0)
		}
		if obj.Version > 0 && !n.IsLeaf() {
			bt.cache.put(p, cacheEntry{view: n, version: obj.Version, seqVer: seqVer})
		}
	}
	return n, obj.Version, nil
}

// checkNode applies the version half of the per-node safety checks that make
// dirty traversals sound (callers add the fence check): the node must belong
// to version tg.sid's history and — in the linear format, where the caller
// has no redirects to follow — must not have been copied toward it.
func (bt *BTree) checkNode(n *nodeView, tg *target) bool {
	sid := tg.sid
	if bt.cfg.Branching {
		ok, err := bt.isAncestor(tg, n.Created)
		return err == nil && ok
	}
	if n.Created > sid {
		return false // node from a later snapshot: stale pointer or reuse
	}
	// Once copied at or below sid the traversal should be at the copy (or a
	// copy of the copy); abort and retry — parents are already updated (§4.2).
	return n.Copied == NoSnap || n.Copied > sid
}

// isAncestor reports whether version a is an ancestor-or-self of tg.sid. A
// version's ancestry never changes, so a target that carries a memo (a leaf
// walk's) asks the catalog about each version once.
func (bt *BTree) isAncestor(tg *target, a uint64) (bool, error) {
	if ok, hit := tg.anc[a]; hit {
		return ok, nil
	}
	ok, err := bt.cat.IsAncestorOrSelf(a, tg.sid)
	if err == nil && tg.anc != nil {
		tg.anc[a] = ok
	}
	return ok, err
}

// bestRedirect returns the deepest (most specific) redirect of n whose
// snapshot is an ancestor-or-self of tg.sid, if any (§5.2).
func (bt *BTree) bestRedirect(n *nodeView, tg *target) (Ptr, bool, error) {
	best := -1
	var bestDepth uint32
	for i, r := range n.Redirects {
		ok, err := bt.isAncestor(tg, r.Sid)
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

// maxRedirectRounds bounds the grouped reads that chase fetched leaves to
// their copies (prefetchLeaves, fetchRun): each round follows one redirect
// per leaf, as one hop of locate does.
const maxRedirectRounds = 4

// locate loads the node at p as version tg sees it: interior nodes with
// loadInterior, a leaf with loadRead when tg validates and loadDirty
// otherwise. While the node carries a redirect whose snapshot is an
// ancestor-or-self of tg.sid it hops to that copy (§5.2; only the branching
// format writes redirects, so on a linear tree the first load returns). It
// reports where the node was finally found — on an error, the location it
// failed to load.
func (bt *BTree) locate(t *dyntx.Txn, tg *target, p Ptr, leaf bool) (Ptr, *nodeView, uint64, error) {
	for hops := 0; hops < 64; hops++ {
		how := loadInterior
		if leaf {
			how = loadDirty
			if tg.validate {
				how = loadRead
			}
		}
		n, ver, err := bt.loadNode(t, p, how)
		if err != nil {
			return p, nil, 0, err
		}
		tp, ok, err := bt.bestRedirect(n, tg)
		if err != nil {
			return p, nil, 0, err
		}
		if !ok {
			return p, n, ver, nil
		}
		p, leaf = tp, n.IsLeaf()
	}
	return p, nil, 0, dyntx.ErrRetry // redirect cycle: torn state, retry
}

// descend walks from tg's root toward the leaf responsible for k, stopping at
// height floor (0 = the leaf), following Fig 5: interior nodes are read
// dirtily (cache-first), fence keys and height are checked at every step, and
// only the leaf is read transactionally (when tg validates). It returns the
// visited path, deepest node last, appended to buf[:0] — callers pass a
// pathBuf of their own frame, so a descent of ordinary depth allocates no
// path. On any inconsistency — a failed check, or an image that is absent or
// not a node (a pointer into a block GC freed) — it invalidates the cache
// entries that led there and returns dyntx.ErrRetry for the optimistic retry
// loop.
func (bt *BTree) descend(t *dyntx.Txn, tg *target, k wire.Key, floor uint8, buf *pathBuf) ([]pathEntry, error) {
	path := buf[:0]

	anchor := tg.root
	ptr, cur, ver, err := bt.locate(t, tg, anchor, false)
	// A Minuet tree always has at least two levels, so the root is interior;
	// a leaf here means a stale root pointer — the proxy's cached root
	// location for tg.sid is itself stale.
	if err == nil && (cur.IsLeaf() || !bt.checkNode(cur, tg) || !cur.inRange(k)) {
		err = dyntx.ErrRetry
	}
	if err != nil {
		if errors.Is(err, dyntx.ErrRetry) {
			bt.invalidateRoot(tg.sid)
			bt.invalidateTraversal(ptr, nil)
		}
		return nil, err
	}
	path = append(path, pathEntry{ptr: ptr, anchor: anchor, view: cur, version: ver})

	for cur.Height > floor {
		i := cur.childIndex(k)
		path[len(path)-1].childIdx = i
		anchor = cur.kid(i) // what the parent's slot holds, pre-redirect
		ptr, next, ver, err := bt.locate(t, tg, anchor, cur.Height == 1)
		// Fatal-inconsistency checks (Fig 5 line 15 plus §4.2): height must
		// decrease by exactly one, and the child must pass fence/version
		// checks.
		if err == nil && (next.Height != cur.Height-1 || !bt.checkNode(next, tg) || !next.inRange(k)) {
			err = dyntx.ErrRetry
		}
		if err != nil {
			if errors.Is(err, dyntx.ErrRetry) {
				bt.invalidateTraversal(ptr, &path[len(path)-1])
			}
			return nil, err
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
	bt.cache.invalidate(child)
	if parent != nil {
		bt.cache.invalidate(parent.ptr)
	}
}

package core

import (
	"bytes"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// The read path. Like writes, every read runs against a resolved target
// (tree.go): a writable version validates its root cell and every leaf it
// reads, so the result is strictly serializable; a frozen version — a
// snapshot handle, or an addressed version that has been branched — is read
// with dirty traversals alone, generating no validation traffic (§4.2).

// KV is one key-value pair returned by scans, cursors and diffs. Key and Val
// alias the leaf image the pair was read from — nothing is copied per pair —
// so they are read-only: the same bytes may back other pairs of the result
// and, inside a transaction, its read set. A pair keeps its leaf's image
// (one node, 4 KiB by default) alive for as long as it is referenced; copy
// what must outlive the result. Point lookups (Get, GetAt, GetSnap, GetTxn)
// return a private copy instead.
type KV struct {
	Key wire.Key
	Val []byte
}

// lookup finds k in tg inside t: the leaf is searched in place and the one
// value found is copied out, so the caller owns what it gets and a small value
// does not pin the leaf's image.
func (bt *BTree) lookup(t *dyntx.Txn, tg *target, k wire.Key) ([]byte, bool, error) {
	leaf, err := bt.leafFor(t, tg, k)
	if err != nil {
		return nil, false, err
	}
	i, ok := leaf.search(k)
	if !ok {
		return nil, false, nil
	}
	return bytes.Clone(leaf.val(i)), true, nil
}

// getTxn looks up k in version sid inside t.
func (bt *BTree) getTxn(t *dyntx.Txn, sid uint64, k wire.Key) ([]byte, bool, error) {
	tg, err := bt.resolve(t, sid)
	if err != nil {
		return nil, false, err
	}
	return bt.lookup(t, &tg, k)
}

// GetTxn looks up k at the tip inside an existing transaction. The caller
// owns commit; on success the read is strictly serializable.
func (bt *BTree) GetTxn(t *dyntx.Txn, k wire.Key) ([]byte, bool, error) {
	return bt.getTxn(t, tipSid, k)
}

// Get looks up k at the tip (strictly serializable).
func (bt *BTree) Get(k wire.Key) (val []byte, ok bool, err error) { return bt.GetAt(tipSid, k) }

// GetAt looks up k in version sid. Writable tips are read with validation
// (root cell + leaf), read-only versions with pure dirty traversals; a
// version that loses its writability mid-retry falls back to the latter.
func (bt *BTree) GetAt(sid uint64, k wire.Key) (val []byte, ok bool, err error) {
	err = bt.run(func(t *dyntx.Txn) error {
		var e error
		val, ok, e = bt.getTxn(t, sid, k)
		return e
	})
	return val, ok, err
}

// GetSnap looks up k in a read-only snapshot. No validation traffic is
// generated: correctness rests on fence keys and copied-snapshot checks
// (§4.2), and on the snapshot's immutability.
func (bt *BTree) GetSnap(s Snapshot, k wire.Key) (val []byte, ok bool, err error) {
	tg := snapTarget(s)
	err = bt.run(func(t *dyntx.Txn) error {
		var e error
		val, ok, e = bt.lookup(t, &tg, k)
		return e
	})
	return val, ok, err
}

// leafWalk steps through one version's leaves in key order, continuing each
// step from the previous leaf's high fence, so no sibling pointers are
// needed. A validating walk locates every leaf by an independent traversal
// (one round trip with a warm proxy cache). A frozen walk fetches runs: it
// descends to a leaf's parent and reads a run of its children in one grouped
// read, then consumes them one step at a time. It is the only code that
// steps by fence; scans, cursors and diffs are loops over it.
type leafWalk struct {
	bt *BTree
	t  *dyntx.Txn // nil: every fetch runs in a transaction of its own
	tg target

	next wire.Key    // where the next leaf starts
	leaf *nodeView   // current leaf; nil before the first step
	pos  int         // first unconsumed key of leaf
	last bool        // leaf is the rightmost one
	run  []*nodeView // fetched leaves that follow leaf, unchecked; nil: not a node
}

// newLeafWalk starts a walk of tg at start. On a branching tree the walk
// memoizes which versions are ancestors of tg's, so the catalog is walked
// once per version met rather than once per node and redirect.
func (bt *BTree) newLeafWalk(t *dyntx.Txn, tg target, start wire.Key) leafWalk {
	if bt.cfg.Branching {
		tg.anc = make(map[uint64]bool)
	}
	return leafWalk{bt: bt, t: t, tg: tg, next: start}
}

// step loads the leaf that starts the rest of the walk and positions at its
// first key ≥ next. want is how many more keys the caller takes and hi where
// it stops; on a frozen target they size the run fetched when none is left.
// Call only while !w.last.
func (w *leafWalk) step(want int, hi wire.Fence) error {
	k := w.next
	if w.leaf = w.fromRun(k); w.leaf == nil {
		n := 1
		if !w.tg.validate { // enough leaves for want keys, were they half full
			n = 1 + (max(want, 1)-1)/max(w.bt.cfg.MaxLeafKeys/2, 1)
		}
		fetch := func(t *dyntx.Txn) (err error) {
			if n > 1 {
				if w.run, err = w.bt.fetchRun(t, &w.tg, k, n, hi); err != nil {
					return err
				}
				if w.leaf = w.fromRun(k); w.leaf != nil {
					return nil
				}
			}
			w.leaf, err = w.bt.leafFor(t, &w.tg, k)
			return err
		}
		var err error
		if w.t != nil {
			err = fetch(w.t)
		} else {
			err = w.bt.run(fetch) // a retry refetches this step, not the walk so far
		}
		if err != nil {
			return err
		}
	}
	w.pos, _ = w.leaf.search(k)
	if w.last = w.leaf.High.IsPosInf(); !w.last {
		w.next = w.leaf.High.Key()
	}
	return nil
}

// fromRun takes the next leaf of the fetched run when it passes exactly the
// checks a descent toward k makes at its last step: a leaf, of version
// tg.sid's history, whose fences hold k. The first one that fails them drops
// the rest of the run, and the caller falls back to a descent.
func (w *leafWalk) fromRun(k wire.Key) *nodeView {
	if len(w.run) == 0 {
		return nil
	}
	n := w.run[0]
	w.run = w.run[1:]
	if n != nil && n.IsLeaf() && w.bt.checkNode(n, &w.tg) && n.inRange(k) {
		return n
	}
	w.run = nil
	return nil
}

// fetchRun reads up to n leaves of frozen target tg, starting with the one
// responsible for k: it descends to that leaf's parent and reads a run of its
// children with one DirtyRead — one minitransaction per memnode, run side by
// side. The run stops at the parent's last child and before the first child
// that starts at or above hi. A leaf that redirects toward tg.sid is replaced
// by its copy in a few more grouped rounds, as prefetchLeaves does; the run
// is cut before a leaf still redirecting after them. Each image is parsed
// once, nil when absent or not a node, and is checked as the walk consumes
// it.
func (bt *BTree) fetchRun(t *dyntx.Txn, tg *target, k wire.Key, n int, hi wire.Fence) ([]*nodeView, error) {
	var buf pathBuf
	path, err := bt.descend(t, tg, k, 1, &buf)
	if err != nil {
		return nil, err
	}
	parent := path[len(path)-1].view
	i := parent.childIndex(k)
	refs := make([]dyntx.Ref, 0, min(n, parent.len()+1-i))
	for j := i; j <= parent.len() && len(refs) < n; j++ {
		if j > i && hi.CompareKey(parent.key(j-1)) >= 0 {
			break // child j starts at or above hi
		}
		refs = append(refs, refNode(parent.kid(j)))
	}
	objs, err := t.DirtyRead(refs...)
	if err != nil {
		return nil, err
	}
	run := make([]*nodeView, len(objs))
	// Swap each leaf that redirects toward tg.sid for its copy: the first
	// pass looks at every leaf, later rounds only at the copies just read.
	var chase []int // positions in run of leaves that redirect toward tg.sid
	refs = refs[:0]
	look := func(j int, obj dyntx.Obj) error {
		if !obj.Exists {
			run[j] = nil
			return nil
		}
		run[j], _ = parseNode(obj.Data)
		if run[j] == nil || len(run[j].Redirects) == 0 {
			return nil
		}
		p, ok, err := bt.bestRedirect(run[j], tg)
		if ok {
			chase = append(chase, j)
			refs = append(refs, refNode(p))
		}
		return err
	}
	// cut ends the run before j and before every leaf still redirecting.
	cut := func(j int) []*nodeView {
		if len(chase) > 0 {
			j = min(j, chase[0])
		}
		return run[:j]
	}
	for j, obj := range objs {
		if look(j, obj) != nil {
			return cut(j), nil
		}
	}
	for round := 0; len(chase) > 0; round++ {
		if round == maxRedirectRounds {
			return cut(len(run)), nil
		}
		copies, err := t.DirtyRead(refs...)
		if err != nil {
			return nil, err
		}
		// at and chase share storage: look appends at or before the
		// position the loop has read.
		at := chase
		chase, refs = chase[:0], refs[:0]
		for x, j := range at {
			if look(j, copies[x]) != nil {
				return cut(j), nil
			}
		}
	}
	return run, nil
}

// scan collects up to limit pairs with start ≤ key < hi from tg, in key
// order. With t == nil each step's fetch runs in its own transaction.
func (bt *BTree) scan(t *dyntx.Txn, tg target, start wire.Key, hi wire.Fence, limit int) ([]KV, error) {
	out := make([]KV, 0, min(limit, 1024))
	bounded := !hi.IsPosInf()
	w := bt.newLeafWalk(t, tg, start)
	for !w.last && len(out) < limit {
		if err := w.step(limit-len(out), hi); err != nil {
			return out, err
		}
		leaf := w.leaf
		for i := w.pos; i < leaf.len() && len(out) < limit; i++ {
			k := leaf.key(i)
			if bounded && hi.CompareKey(k) >= 0 {
				return out, nil // first key ≥ hi
			}
			out = append(out, KV{Key: k, Val: leaf.val(i)})
		}
		if bounded && leaf.High.Compare(hi) >= 0 {
			break
		}
	}
	return out, nil
}

// ScanSnapshot returns up to limit pairs with key ≥ start from a read-only
// snapshot, in key order. Leaves are fetched by dirty reads in runs of
// siblings, so the scan never validates — this is how Minuet runs long
// analytics queries without disturbing the OLTP workload (§4, §6.3).
func (bt *BTree) ScanSnapshot(s Snapshot, start wire.Key, limit int) ([]KV, error) {
	return bt.scan(nil, snapTarget(s), start, wire.PosInf, limit)
}

// ScanTip returns up to limit pairs with key ≥ start from the tip as one
// strictly serializable transaction.
func (bt *BTree) ScanTip(start wire.Key, limit int) ([]KV, error) {
	return bt.ScanAt(tipSid, start, limit)
}

// ScanAt returns up to limit pairs with key ≥ start from version sid as one
// transaction. A read-only version scans without validation. On a writable
// one every leaf joins the read set, so the commit validates the entire
// range — with concurrent updates anywhere in the range, the transaction
// aborts. This is precisely why the paper executes long scans against
// snapshots instead ("these long scans may never commit", §6.3); scanning a
// writable version is for short serializable ranges and to demonstrate that
// behaviour.
func (bt *BTree) ScanAt(sid uint64, start wire.Key, limit int) (out []KV, err error) {
	err = bt.run(func(t *dyntx.Txn) error {
		tg, e := bt.resolve(t, sid)
		if e != nil {
			return e
		}
		out, e = bt.scan(t, tg, start, wire.PosInf, limit)
		return e
	})
	return out, err
}

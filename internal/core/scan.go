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

// leafWalk steps through one version's leaves in key order. Each leaf is
// located by an independent traversal (one round trip with a warm proxy
// cache) and the walk continues from its high fence, so no sibling pointers
// are needed. It is the only code that steps by fence; scans, cursors and
// diffs are loops over it.
type leafWalk struct {
	bt *BTree
	t  *dyntx.Txn // nil: every leaf is fetched in a transaction of its own
	tg target

	next wire.Key  // where the next leaf starts
	leaf *nodeView // current leaf; nil before the first step
	pos  int       // first unconsumed key of leaf
	last bool      // leaf is the rightmost one
}

// step loads the leaf that starts the rest of the walk and positions at its
// first key ≥ next. Call only while !w.last.
func (w *leafWalk) step() (err error) {
	k := w.next
	if w.t != nil {
		w.leaf, err = w.bt.leafFor(w.t, &w.tg, k)
	} else {
		// A retry refetches this one leaf, not the walk so far.
		err = w.bt.run(func(t *dyntx.Txn) (e error) {
			w.leaf, e = w.bt.leafFor(t, &w.tg, k)
			return e
		})
	}
	if err != nil {
		return err
	}
	w.pos, _ = w.leaf.search(k)
	if w.last = w.leaf.High.IsPosInf(); !w.last {
		w.next = w.leaf.High.Key()
	}
	return nil
}

// scan collects up to limit pairs with start ≤ key < hi from tg, in key
// order. With t == nil each leaf is read in its own transaction.
func (bt *BTree) scan(t *dyntx.Txn, tg target, start wire.Key, hi wire.Fence, limit int) ([]KV, error) {
	out := make([]KV, 0, min(limit, 1024))
	bounded := !hi.IsPosInf()
	w := leafWalk{bt: bt, t: t, tg: tg, next: start}
	for !w.last && len(out) < limit {
		if err := w.step(); err != nil {
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
// snapshot, in key order. Each leaf is located by an independent dirty
// traversal, so the scan never validates — this is how Minuet runs long
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

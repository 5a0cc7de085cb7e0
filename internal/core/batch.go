package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// The write path. Every write — one key or ten thousand, at the tip or at an
// addressed version, on a linear or a branching tree — is the same four
// steps:
//
//	resolve   the version id (tipSid = "the tip") becomes a target: snapshot
//	          id, root, and the replicated cell that holds the root, which
//	          joins the read set so the commit validates that the version is
//	          still the writable one (tree.go);
//	sweep     the sorted ops are applied leaf by leaf, so each touched leaf is
//	          read, validated, and rewritten once, with copy-on-write and
//	          splits propagating up the traversal path (batchSweep, ops.go);
//	setRoot   root growth rewrites the target's root cell, and later
//	          leaf-groups of the same transaction descend from the new root;
//	retry     the whole transaction commits as a single minitransaction in
//	          the one optimistic loop (dyntx.Run, hooked by RunMulti); on a
//	          validation failure the stale proxy caches are dropped and every
//	          step runs again.
//
// A batch of more than one key first prefetches its leaves with one
// multi-read minitransaction per memnode, issued concurrently
// (Client.ExecIndependent), so the fetch phase costs roughly one round trip
// regardless of batch size; a single key skips that, since the sweep's own
// traversal fetches the one leaf in the same single round trip. When the
// commit's writes span several memnodes, the two-phase protocol prepares all
// of them in parallel.
//
// The whole batch is atomic: every mutation applies, or (on conflict or
// crash) none does. The two tree formats differ only below this file: which
// cell resolve validates and setRoot rewrites, and how a copied node records
// where its copy lives (markCopied).

// BatchOp is one operation in a write batch: a Put of (Key, Val), or a
// Delete of Key when Delete is set.
type BatchOp struct {
	Key    wire.Key
	Val    []byte
	Delete bool
}

// normalizeBatch sorts ops by key and collapses duplicate keys to the last
// occurrence, preserving Put/Put, Put/Delete, and Delete/Put overwrite
// semantics. The input slice is not modified.
func normalizeBatch(ops []BatchOp) []BatchOp {
	last := make(map[string]int, len(ops))
	for i := range ops {
		last[string(ops[i].Key)] = i
	}
	out := make([]BatchOp, 0, len(last))
	for i := range ops {
		if last[string(ops[i].Key)] == i {
			out = append(out, ops[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return wire.CompareKeys(out[a].Key, out[b].Key) < 0 })
	return out
}

// Put inserts or updates k at the tip.
func (bt *BTree) Put(k wire.Key, v []byte) error { return bt.PutAt(tipSid, k, v) }

// PutAt inserts or updates k in writable version sid.
func (bt *BTree) PutAt(sid uint64, k wire.Key, v []byte) error {
	_, err := bt.applyAt(sid, []BatchOp{{Key: k, Val: v}})
	return err
}

// PutTxn inserts or updates k at the tip inside an existing transaction.
func (bt *BTree) PutTxn(t *dyntx.Txn, k wire.Key, v []byte) error {
	_, err := bt.writeAt(t, tipSid, []BatchOp{{Key: k, Val: v}})
	return err
}

// Remove deletes k at the tip, reporting whether it was present.
func (bt *BTree) Remove(k wire.Key) (existed bool, err error) { return bt.RemoveAt(tipSid, k) }

// RemoveAt deletes k in writable version sid, reporting whether it was
// present. Minuet does not merge under-full nodes (docs/ARCHITECTURE.md,
// "Why no node merging"): empty leaves keep their fences and remain correct.
func (bt *BTree) RemoveAt(sid uint64, k wire.Key) (existed bool, err error) {
	n, err := bt.applyAt(sid, []BatchOp{{Key: k, Delete: true}})
	return n == 1, err
}

// RemoveTxn deletes k at the tip inside an existing transaction, reporting
// whether the key was present.
func (bt *BTree) RemoveTxn(t *dyntx.Txn, k wire.Key) (bool, error) {
	n, err := bt.writeAt(t, tipSid, []BatchOp{{Key: k, Delete: true}})
	return n == 1, err
}

// ApplyBatch applies ops as one atomic batch at the tip.
func (bt *BTree) ApplyBatch(ops []BatchOp) error { return bt.ApplyBatchAt(tipSid, ops) }

// ApplyBatchAt applies ops as one atomic batch to writable version sid,
// retrying on optimistic conflicts. Addressing a real version id requires a
// branching tree (ErrNotBranching otherwise), and writing to a version that
// has been branched returns ErrNotWritable, like PutAt.
func (bt *BTree) ApplyBatchAt(sid uint64, ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	_, err := bt.applyAt(sid, normalizeBatch(ops))
	return err
}

// BatchTxn assembles ops, targeting the tip, into an existing dynamic
// transaction.
func (bt *BTree) BatchTxn(t *dyntx.Txn, ops []BatchOp) error { return bt.BatchTxnAt(t, tipSid, ops) }

// BatchTxnAt assembles ops targeting writable version sid into an existing
// dynamic transaction. The caller owns commit (and retry); ops from several
// batches or trees may share one transaction and commit atomically together.
func (bt *BTree) BatchTxnAt(t *dyntx.Txn, sid uint64, ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	_, err := bt.writeAt(t, sid, normalizeBatch(ops))
	return err
}

// applyAt runs writeAt as its own transaction in the retry loop.
func (bt *BTree) applyAt(sid uint64, ops []BatchOp) (removed int, err error) {
	err = bt.run(func(t *dyntx.Txn) error {
		var e error
		removed, e = bt.writeAt(t, sid, ops)
		return e
	})
	return removed, err
}

// ErrTooLarge is returned by every write (Put, Remove, ApplyBatch, their *At
// and *Txn forms) given a key or value longer than maxRecordLen. The whole
// call is refused before anything is buffered: a batch with one oversized op
// applies none of its ops.
var ErrTooLarge = errors.New("core: key or value too large")

// maxRecordLen is the longest key or value a node can hold: records carry a
// 16-bit length prefix.
const maxRecordLen = math.MaxUint16

// writeAt assembles normalized ops against version sid into t, reporting how
// many of its deletes found their key.
func (bt *BTree) writeAt(t *dyntx.Txn, sid uint64, ops []BatchOp) (removed int, err error) {
	for i := range ops {
		if len(ops[i].Key) > maxRecordLen || len(ops[i].Val) > maxRecordLen {
			return 0, fmt.Errorf("%w: op %d of %d has a %d-byte key and a %d-byte value, limit %d",
				ErrTooLarge, i, len(ops), len(ops[i].Key), len(ops[i].Val), maxRecordLen)
		}
	}
	tg, err := bt.resolve(t, sid)
	if err != nil {
		return 0, err
	}
	if !tg.validate {
		return 0, fmt.Errorf("%w: snapshot %d branched to %d", ErrNotWritable, tg.sid, tg.ent.BranchID)
	}
	if len(ops) > 1 {
		// Prefetch the touched leaves into the read set. Best-effort: on any
		// planning hiccup the sweep fetches leaves itself (one round trip
		// each).
		bt.prefetchLeaves(t, &tg, ops)
	}
	return bt.batchSweep(t, &tg, ops)
}

// batchSweep applies sorted, duplicate-free ops to tg leaf by leaf; it is the
// only code that edits a leaf image. Each group re-traverses through the
// transaction: loadNode serves what the attempt holds before the proxy
// cache, so a parent rewritten by an earlier group in this same transaction
// is observed by later groups with no network traffic, and root growth is
// observed through tg.root, which setRoot keeps current.
func (bt *BTree) batchSweep(t *dyntx.Txn, tg *target, ops []BatchOp) (removed int, err error) {
	var buf pathBuf
	for i := 0; i < len(ops); {
		path, err := bt.descend(t, tg, ops[i].Key, 0, &buf)
		if err != nil {
			return 0, err
		}
		leaf := path[len(path)-1].view
		nl := leaf.materialize()
		changed := false
		for ; i < len(ops) && leaf.inRange(ops[i].Key); i++ {
			op := ops[i]
			idx, found := nl.search(op.Key)
			switch {
			case op.Delete && !found:
				continue
			case op.Delete:
				nl.Keys = append(nl.Keys[:idx], nl.Keys[idx+1:]...)
				nl.Vals = append(nl.Vals[:idx], nl.Vals[idx+1:]...)
				removed++
			case found:
				nl.Vals[idx] = op.Val
			default:
				nl.Keys = append(nl.Keys, nil)
				copy(nl.Keys[idx+1:], nl.Keys[idx:])
				nl.Keys[idx] = op.Key
				nl.Vals = append(nl.Vals, nil)
				copy(nl.Vals[idx+1:], nl.Vals[idx:])
				nl.Vals[idx] = op.Val
			}
			changed = true
		}
		if changed {
			if err := bt.applyUpdate(t, tg, path, len(path)-1, nl); err != nil {
				return 0, err
			}
		}
	}
	return removed, nil
}

// prefetchLeaves plans the leaf for every op by descending to the leaf's
// parent (interior nodes come from the proxy cache, dirty reads on a miss)
// and fetches all distinct planned leaves with one concurrent multi-read
// minitransaction per memnode, injecting them into the read set. A fetched
// leaf may itself carry a redirect toward tg.sid (its copy lives elsewhere),
// so a few extra rounds chase those copies into the read set too. Planning
// errors abandon the prefetch — the authoritative sweep re-traverses and
// reports them properly.
func (bt *BTree) prefetchLeaves(t *dyntx.Txn, tg *target, ops []BatchOp) {
	var refs []dyntx.Ref
	planned := false
	var high wire.Fence // upper fence of the last planned leaf
	var buf pathBuf
	for _, op := range ops {
		if planned && (high.IsPosInf() || high.CompareKey(op.Key) < 0) {
			continue // same planned leaf as the previous op
		}
		path, err := bt.descend(t, tg, op.Key, 1, &buf)
		if err != nil {
			return
		}
		parent := path[len(path)-1].view
		i := parent.childIndex(op.Key)
		_, high = parent.childFences(i)
		planned = true
		refs = append(refs, refNode(parent.kid(i)))
	}
	const maxRedirectRounds = 4
	for round := 0; len(refs) > 0 && round <= maxRedirectRounds; round++ {
		objs, err := t.ReadBatch(refs)
		if err != nil {
			return
		}
		refs = refs[:0]
		for _, o := range objs {
			if !o.Exists || !hasRedirects(o.Data) {
				continue
			}
			n, err := parseNode(o.Data)
			if err != nil {
				continue
			}
			p, ok, err := bt.bestRedirect(n, tg.sid)
			if err != nil {
				return
			}
			if ok {
				refs = append(refs, refNode(p))
			}
		}
	}
}

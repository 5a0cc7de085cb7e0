package core

import (
	"bytes"
	"math"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// Cross-version queries (§5.1: "maintaining several versions in the same
// system also allows us to issue transactional queries across different
// versions of the data, which may be useful for integrity checks and to
// compare the results of an analysis").
//
// Diff computes the key-level differences between two read-only versions.
// Because versions share copy-on-write structure, the walk prunes any
// subtree whose root pointer is identical in both versions: the cost is
// proportional to the amount of divergence, not to the tree size.

// DiffKind classifies one difference.
type DiffKind uint8

// Difference kinds.
const (
	// DiffAdded: the key exists only in version B.
	DiffAdded DiffKind = iota
	// DiffRemoved: the key exists only in version A.
	DiffRemoved
	// DiffChanged: the key exists in both with different values.
	DiffChanged
)

func (k DiffKind) String() string {
	switch k {
	case DiffAdded:
		return "added"
	case DiffRemoved:
		return "removed"
	case DiffChanged:
		return "changed"
	}
	return "?"
}

// DiffEntry is one key-level difference between two versions. Like a KV, its
// byte strings alias the leaf images they were read from: read-only.
type DiffEntry struct {
	Kind DiffKind
	Key  wire.Key
	// ValA is the value in version A (DiffRemoved, DiffChanged).
	ValA []byte
	// ValB is the value in version B (DiffAdded, DiffChanged).
	ValB []byte
}

// DiffSnapshots returns the key-level differences between two read-only
// snapshots (linear mode), in key order, up to limit entries (0 = no
// limit). Subtrees physically shared between the versions are skipped
// without being read.
func (bt *BTree) DiffSnapshots(a, b Snapshot, limit int) ([]DiffEntry, error) {
	var out []DiffEntry
	err := bt.run(func(t *dyntx.Txn) error {
		w := &diffWalker{bt: bt, t: t, a: snapTarget(a), b: snapTarget(b), limit: limit}
		if err := w.walk(a.Root, b.Root); err != nil {
			return err
		}
		out = w.out
		return nil
	})
	return out, err
}

// DiffVersions is DiffSnapshots for branching mode: it diffs any two
// versions in the version tree by their catalog entries. Writable tips are
// allowed but the result is only stable if they are quiescent.
func (bt *BTree) DiffVersions(a, b uint64, limit int) ([]DiffEntry, error) {
	if err := bt.requireBranching(); err != nil {
		return nil, err
	}
	ea, err := bt.cat.Get(a)
	if err != nil {
		return nil, err
	}
	eb, err := bt.cat.Get(b)
	if err != nil {
		return nil, err
	}
	return bt.DiffSnapshots(Snapshot{Sid: a, Root: ea.Root}, Snapshot{Sid: b, Root: eb.Root}, limit)
}

// diffWalker accumulates differences during a parallel tree walk of
// versions a and b, both read as frozen.
type diffWalker struct {
	bt    *BTree
	t     *dyntx.Txn
	a, b  target
	limit int
	out   []DiffEntry
}

func (w *diffWalker) full() bool { return w.limit > 0 && len(w.out) >= w.limit }

// load fetches the node at p as version tg sees it.
func (w *diffWalker) load(p Ptr, tg *target) (*nodeView, error) {
	// p's height is unknown; the interior loader also decodes leaves.
	_, n, _, err := w.bt.locate(w.t, tg, p, false)
	if err != nil {
		return nil, err
	}
	if !w.bt.checkNode(n, tg) {
		return nil, dyntx.ErrRetry
	}
	return n, nil
}

// pairs lists a leaf's key-value pairs, aliasing its image.
func (v *nodeView) pairs() []KV {
	out := make([]KV, v.nk)
	for i := range out {
		out[i] = KV{Key: v.key(i), Val: v.val(i)}
	}
	return out
}

// diffPairs merges two key-ordered runs of pairs into per-key differences.
func (w *diffWalker) diffPairs(a, b []KV) {
	i, j := 0, 0
	for (i < len(a) || j < len(b)) && !w.full() {
		var c int
		switch {
		case j >= len(b):
			c = -1
		case i >= len(a):
			c = 1
		default:
			c = wire.CompareKeys(a[i].Key, b[j].Key)
		}
		switch c {
		case -1:
			w.out = append(w.out, DiffEntry{Kind: DiffRemoved, Key: a[i].Key, ValA: a[i].Val})
			i++
		case 1:
			w.out = append(w.out, DiffEntry{Kind: DiffAdded, Key: b[j].Key, ValB: b[j].Val})
			j++
		default:
			if !bytes.Equal(a[i].Val, b[j].Val) {
				w.out = append(w.out, DiffEntry{Kind: DiffChanged, Key: a[i].Key, ValA: a[i].Val, ValB: b[j].Val})
			}
			i++
			j++
		}
	}
}

// walk diffs the subtrees rooted at pa (version A) and pb (version B).
// Identical pointers mean physically shared state: prune immediately.
func (w *diffWalker) walk(pa, pb Ptr) error {
	if pa == pb || w.full() {
		return nil
	}
	a, err := w.load(pa, &w.a)
	if err != nil {
		return err
	}
	b, err := w.load(pb, &w.b)
	if err != nil {
		return err
	}

	switch {
	case a.IsLeaf() && b.IsLeaf():
		w.diffPairs(a.pairs(), b.pairs())
		return nil
	case a.IsLeaf() != b.IsLeaf():
		// Height mismatch (one side split into another level): brute-force
		// diff the leaf's key range.
		if a.IsLeaf() {
			return w.diffRange(a.Low, a.High)
		}
		return w.diffRange(b.Low, b.High)
	}

	// Both interior (same fences, guaranteed by the caller): sweep a
	// position cursor across the common key range. Children whose fences
	// align pair up and recurse (pruning shared pointers); misaligned runs
	// (splits on one side) are diffed by scanning both versions up to the
	// next boundary present on both sides.
	pos := a.Low
	ai, bi := 0, 0
	for (ai <= a.len() || bi <= b.len()) && !w.full() {
		if ai <= a.len() && bi <= b.len() {
			aLow, aHigh := a.childFences(ai)
			bLow, bHigh := b.childFences(bi)
			if aLow.Compare(pos) == 0 && bLow.Compare(pos) == 0 && aHigh.Compare(bHigh) == 0 {
				if err := w.walk(a.kid(ai), b.kid(bi)); err != nil {
					return err
				}
				pos = aHigh
				ai++
				bi++
				continue
			}
		}
		g := nextCommonBoundary(a, b, pos)
		if err := w.diffRange(pos, g); err != nil {
			return err
		}
		for ai <= a.len() {
			if _, h := a.childFences(ai); h.Compare(g) <= 0 {
				ai++
			} else {
				break
			}
		}
		for bi <= b.len() {
			if _, h := b.childFences(bi); h.Compare(g) <= 0 {
				bi++
			} else {
				break
			}
		}
		pos = g
	}
	return nil
}

// nextCommonBoundary returns the smallest fence above pos that bounds a
// child range in BOTH interior nodes. The nodes share their high fence, so
// a common boundary always exists.
func nextCommonBoundary(a, b *nodeView, pos wire.Fence) wire.Fence {
	i, j := 0, 0
	for i < a.len() && j < b.len() {
		fa, fb := wire.FenceAt(a.key(i)), wire.FenceAt(b.key(j))
		if fa.Compare(pos) <= 0 {
			i++
			continue
		}
		if fb.Compare(pos) <= 0 {
			j++
			continue
		}
		switch fa.Compare(fb) {
		case 0:
			return fa
		case -1:
			i++
		default:
			j++
		}
	}
	return a.High
}

// diffRange diffs versions A and B over the key range [lo, hi) by scanning
// both sides. Used only where structural pairing broke down.
func (w *diffWalker) diffRange(lo, hi wire.Fence) error {
	var start wire.Key
	if !lo.IsNegInf() {
		start = lo.Key()
	}
	aKVs, err := w.bt.scan(w.t, w.a, start, hi, math.MaxInt)
	if err != nil {
		return err
	}
	bKVs, err := w.bt.scan(w.t, w.b, start, hi, math.MaxInt)
	if err != nil {
		return err
	}
	w.diffPairs(aKVs, bKVs)
	return nil
}

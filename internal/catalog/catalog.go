// Package catalog implements the snapshot catalog of Minuet's branching
// version trees (§5.1): per-snapshot metadata — root location, parent
// snapshot, first branch (branch id), child count — kept in Sinfonia and
// consulted by every up-to-date operation on a branch.
//
// The paper stores the catalog in a dedicated B-tree whose *leaves are
// replicated across all memnodes* and cached at proxies, so that validating
// a snapshot's branch id commits locally. Catalog access is always a point
// lookup by snapshot id, so this implementation uses the equivalent
// fixed-slot layout: the entry for snapshot s of tree t is a replicated item
// at space.CatalogAddr(t, s) — written atomically on every memnode when a
// snapshot or branch is created, read and validated at whichever memnode a
// transaction already engages, and cached at proxies. The cost structure is
// identical to the paper's replicated leaves (docs/ARCHITECTURE.md, "What
// stays format-specific").
//
// Ancestry questions ("is version a an ancestor of b?", asked for every
// visited node and redirect) are answered from a lineage per version: its
// depth and jump pointers to the ancestors 2^i levels up. A lineage is
// proxy-local, built once from the immutable Parent and Depth fields, and
// never changes or leaves the proxy, so readers reach it without a lock and
// a question costs O(log depth) pointer hops and no round trip.
package catalog

import (
	"fmt"
	"math/bits"
	"sync"

	"minuet/internal/dyntx"
	"minuet/internal/sinfonia"
	"minuet/internal/space"
	"minuet/internal/wire"
)

const entryMagic byte = 0xCA

// Entry is a snapshot's catalog record. Sid, Parent, and Depth are
// immutable once written; Root moves only while the snapshot is writable
// (its tree grows a level), BranchID mutates once (0 → first branch) and
// NumChildren grows up to the version tree's branching bound β.
type Entry struct {
	Sid         uint64
	Root        sinfonia.Ptr
	Parent      uint64 // 0 = root of the version tree
	BranchID    uint64 // first branch created from this snapshot; 0 = none (writable)
	NumChildren uint8
	Depth       uint32 // depth in the version tree (root snapshot = 0)

	// Version is the catalog item's version at the local replica when the
	// entry was fetched; up-to-date operations inject it into their read
	// set to validate that the snapshot is still writable.
	Version uint64
}

// Writable reports whether the snapshot is a tip (no branch created yet).
func (e Entry) Writable() bool { return e.BranchID == 0 }

// Encode serializes an entry for storage.
func Encode(e Entry) []byte {
	w := wire.NewBuffer(48)
	w.U8(entryMagic)
	w.U64(e.Sid)
	w.U32(uint32(e.Root.Node))
	w.U64(uint64(e.Root.Addr))
	w.U64(e.Parent)
	w.U64(e.BranchID)
	w.U8(e.NumChildren)
	w.U32(e.Depth)
	return w.Bytes()
}

// Decode deserializes an entry.
func Decode(data []byte) (Entry, error) {
	r := wire.NewReader(data)
	if r.U8() != entryMagic {
		return Entry{}, fmt.Errorf("catalog: bad entry magic")
	}
	var e Entry
	e.Sid = r.U64()
	e.Root.Node = sinfonia.NodeID(int32(r.U32()))
	e.Root.Addr = sinfonia.Addr(r.U64())
	e.Parent = r.U64()
	e.BranchID = r.U64()
	e.NumChildren = r.U8()
	e.Depth = r.U32()
	if err := r.Err(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Catalog is a proxy-side view of one tree's snapshot catalog. Entries are
// cached until invalidated and refreshed on demand; lineages, built from the
// immutable fields, are cached forever. Safe for concurrent use.
type Catalog struct {
	c       *sinfonia.Client
	treeIdx int
	local   sinfonia.NodeID

	mu      sync.RWMutex
	entries map[uint64]Entry // guarded by mu

	lineages sync.Map // sid → *lineage; written once per sid, never deleted
}

// New returns a catalog view reading from the given preferred replica.
func New(c *sinfonia.Client, treeIdx int, local sinfonia.NodeID) *Catalog {
	return &Catalog{c: c, treeIdx: treeIdx, local: local, entries: make(map[uint64]Entry)}
}

// Ref returns the dyntx reference of a snapshot's catalog slot (replicated).
func (cat *Catalog) Ref(sid uint64) dyntx.Ref {
	return dyntx.Ref{
		Ptr:        sinfonia.Ptr{Node: cat.local, Addr: space.CatalogAddr(cat.treeIdx, sid)},
		Replicated: true,
	}
}

// Get returns the catalog entry for sid, from cache when available.
func (cat *Catalog) Get(sid uint64) (Entry, error) {
	cat.mu.RLock()
	e, ok := cat.entries[sid]
	cat.mu.RUnlock()
	if ok {
		return e, nil
	}
	return cat.Refresh(sid)
}

// Refresh fetches sid's entry from the local replica, updating the cache.
func (cat *Catalog) Refresh(sid uint64) (Entry, error) {
	res, err := cat.c.Read(sinfonia.Ptr{Node: cat.local, Addr: space.CatalogAddr(cat.treeIdx, sid)})
	if err != nil {
		return Entry{}, err
	}
	if !res.Exists {
		return Entry{}, fmt.Errorf("catalog: snapshot %d does not exist", sid)
	}
	e, err := Decode(res.Data)
	if err != nil {
		return Entry{}, err
	}
	e.Version = res.Version
	cat.mu.Lock()
	cat.entries[sid] = e
	cat.mu.Unlock()
	return e, nil
}

// Invalidate drops sid's entry from the cache. Its lineage stays: Parent
// and Depth cannot change.
func (cat *Catalog) Invalidate(sid uint64) {
	cat.mu.Lock()
	delete(cat.entries, sid)
	cat.mu.Unlock()
}

// lineage is a version's place in the version tree: its depth and jump
// pointers, up[i] being the ancestor 2^i levels above (up[0] the parent), so
// len(up) is bits.Len32(depth). It never changes once stored.
type lineage struct {
	sid   uint64
	depth uint32
	up    []*lineage
}

// lift returns l's ancestor k levels up, in one hop per set bit of k. Call
// only with k ≤ l.depth.
func (l *lineage) lift(k uint32) *lineage {
	for ; k != 0; k &= k - 1 {
		l = l.up[bits.TrailingZeros32(k)]
	}
	return l
}

// lineage returns sid's lineage, building it — and those of any ancestors
// not yet built — from catalog entries on first use.
func (cat *Catalog) lineage(sid uint64) (*lineage, error) {
	if l, ok := cat.lineages.Load(sid); ok {
		return l.(*lineage), nil
	}
	var chain []Entry // sid, then its ancestors that have no lineage yet
	var top *lineage  // the nearest ancestor that has one; nil: none
	for cur := sid; top == nil; {
		e, err := cat.Get(cur)
		if err != nil {
			return nil, err
		}
		if n := len(chain); n > 0 && e.Depth+1 != chain[n-1].Depth {
			return nil, fmt.Errorf("catalog: snapshot %d at depth %d is the parent of %d at depth %d",
				e.Sid, e.Depth, chain[n-1].Sid, chain[n-1].Depth)
		}
		chain = append(chain, e)
		if e.Parent == 0 {
			break
		}
		if l, ok := cat.lineages.Load(e.Parent); ok {
			top = l.(*lineage)
		}
		cur = e.Parent
	}
	var want uint32 // the chain ends at the root or one level below top
	if top != nil {
		want = top.depth + 1
	}
	if e := chain[len(chain)-1]; e.Depth != want {
		return nil, fmt.Errorf("catalog: snapshot %d at depth %d, want %d", e.Sid, e.Depth, want)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		l := &lineage{sid: chain[i].Sid, depth: chain[i].Depth}
		if top != nil {
			l.up = make([]*lineage, 1, bits.Len32(l.depth))
			l.up[0] = top
			for j := 1; j < cap(l.up); j++ {
				l.up = append(l.up, l.up[j-1].up[j-1])
			}
		}
		// A concurrent build of the same sid may have won: use its value,
		// so that every lineage of a version is the one stored.
		stored, _ := cat.lineages.LoadOrStore(l.sid, l)
		top = stored.(*lineage)
	}
	return top, nil
}

// Depth returns sid's depth in the version tree (root snapshot = 0).
func (cat *Catalog) Depth(sid uint64) (uint32, error) {
	l, err := cat.lineage(sid)
	if err != nil {
		return 0, err
	}
	return l.depth, nil
}

// IsAncestorOrSelf reports whether snapshot a is an ancestor of (or equal
// to) snapshot b in the version tree, lifting b to a's depth in O(log depth)
// hops.
func (cat *Catalog) IsAncestorOrSelf(a, b uint64) (bool, error) {
	if a == b {
		return true, nil
	}
	la, err := cat.lineage(a)
	if err != nil {
		return false, err
	}
	lb, err := cat.lineage(b)
	if err != nil {
		return false, err
	}
	return la.depth < lb.depth && lb.lift(lb.depth-la.depth) == la, nil
}

// LCA returns the lowest common ancestor of snapshots a and b.
func (cat *Catalog) LCA(a, b uint64) (uint64, error) {
	la, err := cat.lineage(a)
	if err != nil {
		return 0, err
	}
	lb, err := cat.lineage(b)
	if err != nil {
		return 0, err
	}
	if la.depth > lb.depth {
		la = la.lift(la.depth - lb.depth)
	} else {
		lb = lb.lift(lb.depth - la.depth)
	}
	if la == lb {
		return la.sid, nil
	}
	// Same depth, different versions: take every jump that still lands on
	// two different ancestors; the parent of where that ends is the LCA.
	for i := len(la.up) - 1; i >= 0; i-- {
		if i < len(la.up) && la.up[i] != lb.up[i] {
			la, lb = la.up[i], lb.up[i]
		}
	}
	if len(la.up) == 0 {
		return 0, fmt.Errorf("catalog: %d and %d share no ancestor", a, b)
	}
	return la.up[0].sid, nil
}

// ChildToward returns the direct child c of ancestor a such that c is an
// ancestor-or-self of descendant d. Used to group redirect entries by child
// subtree when enforcing the descendant-set bound (§5.2).
func (cat *Catalog) ChildToward(a, d uint64) (uint64, error) {
	if a == d {
		return 0, fmt.Errorf("catalog: %d is not a strict descendant of %d", d, a)
	}
	la, err := cat.lineage(a)
	if err != nil {
		return 0, err
	}
	ld, err := cat.lineage(d)
	if err != nil {
		return 0, err
	}
	if ld.depth <= la.depth {
		return 0, fmt.Errorf("catalog: %d is not a descendant of %d", d, a)
	}
	c := ld.lift(ld.depth - la.depth - 1)
	if c.up[0] != la {
		return 0, fmt.Errorf("catalog: %d is not a descendant of %d", d, a)
	}
	return c.sid, nil
}
